package par

import (
	"time"

	"lesm/internal/rng"
)

// Delta is one chunk's diff against a flat []int count table. Hot loops
// read Cells directly; writes go through Add, which puts a cell on the
// dirty list on its first touch, so folding the delta costs O(cells
// touched) rather than a scan of the whole table. Its arrays come from
// PadSlice; the dirty list grows by append, one write per first touch.
type Delta struct {
	Cells   []int
	touched []bool
	dirty   []int
}

// NewDelta returns a zeroed delta over an n-cell table.
func NewDelta(n int) Delta {
	return Delta{Cells: PadSlice[int](n), touched: PadSlice[bool](n)}
}

// Add adds c to cell i.
func (d *Delta) Add(i, c int) {
	if !d.touched[i] {
		d.touched[i] = true
		d.dirty = append(d.dirty, i)
	}
	d.Cells[i] += c
}

// FoldInto appends d's nonzero cells to acc and resets d. It is a chunk's
// end: the worker folds its live delta into the pass accumulator of its
// slot.
func (d *Delta) FoldInto(acc *Acc) {
	for _, i := range d.dirty {
		if c := d.Cells[i]; c != 0 {
			acc.add(i, c)
			d.Cells[i] = 0
		}
		d.touched[i] = false
	}
	d.dirty = d.dirty[:0]
}

// Acc is a worker's pass accumulator over a flat []int count table: the
// (cell, change) pairs its chunks folded, listed by stripe. Stripe s holds
// the cells of the s-th of NewAcc's stripes contiguous, near-equal cell
// ranges, so one merge worker per stripe walks only its own pairs and no
// two write one cell of the destination. The lists are appended in order
// and walked in order; only the destination is read at random. Their
// arrays come from PadSlice.
type Acc struct {
	lists [][]cellChange
	// scale maps cell i to stripe i*scale>>32; see NewAcc.
	scale uint64
}

// cellChange is one folded change: c added to cell.
type cellChange struct{ cell, c int }

// NewAcc returns an empty accumulator over an n-cell table whose pairs
// are listed by stripes stripes (at least one).
func NewAcc(n, stripes int) Acc {
	stripes = max(stripes, 1)
	a := Acc{lists: PadSlice[[]cellChange](stripes)}
	if n > 0 {
		// floor(2^32·stripes/n): cell n-1 maps below stripes, and the
		// product i·scale stays below 2^32·stripes.
		a.scale = uint64(stripes) << 32 / uint64(n)
	}
	return a
}

// add appends the change c to cell i to its stripe's list, growing the
// list into a fresh PadSlice array when it is full.
func (a *Acc) add(i, c int) {
	s := int(uint64(i) * a.scale >> 32)
	l := a.lists[s]
	if len(l) == cap(l) {
		l = append(PadSlice[cellChange](max(2*cap(l), 256))[:0], l...)
	}
	a.lists[s] = append(l, cellChange{i, c})
}

// MergeStripe adds the pairs of stripe s into dst, empties the list and
// returns the number of pairs it visited. A nil dst discards them.
func (a *Acc) MergeStripe(dst []int, s int) int {
	l := a.lists[s]
	if dst != nil {
		for _, p := range l {
			dst[p.cell] += p.c
		}
	}
	a.lists[s] = l[:0]
	return len(l)
}

// Slot is one worker's private state in a Sweeper: the PRNG stream of the
// document being sampled and the engine's state S.
type Slot[S any] struct {
	Rng   rng.Stream
	State S
}

// PassStats are the timings a Sweeper accumulates while its Stats is set.
type PassStats struct {
	Cells int64         // accumulator pairs merged
	Merge time.Duration // striped merge wall time
	Wall  time.Duration // pass wall time, merge included
}

// Sweeper is the chunked delayed-update pass driver of the collapsed
// Gibbs samplers (AD-LDA, Newman et al. 2009). A pass splits n documents
// into the SamplerChunks chunking and runs the chunks on the worker pool.
// Each worker owns one Slot: a live chunk delta and a pass accumulator,
// the buffering of LightLDA (Yuan et al. 2015), which keeps updates per
// worker rather than per data block. A chunk samples against the frozen
// global tables plus its own live delta; before each document the slot's
// stream is reseeded to the document's (seed, doc, sweep) stream. At the
// chunk's end the worker folds the live delta into its accumulator and
// resets it, so the next chunk on that worker again sees only its own
// changes. After all chunks finish, the accumulators merge into the
// globals in parallel, one worker per stripe of cells.
//
// Chunk boundaries and streams depend only on (seed, n, sweep), never on
// the worker count, and every count is an integer, whose sum does not
// depend on which worker folded it or in what order. The sampled
// trajectory is therefore bit-identical at any P, however the chunks are
// dealt to the workers.
//
// Each slot is a Padded value and its arrays should come from PadSlice,
// so no cache line holds words of two workers.
type Sweeper[S any] struct {
	// Slots holds one slot per worker, min(o.Workers(), chunks) of them;
	// the accumulators' stripes are as many.
	Slots []Padded[Slot[S]]
	// Stats, when non-nil, accumulates every pass's timings and merged
	// cells; nil keeps passes free of time calls.
	Stats *PassStats

	o     Opts
	n, nc int
	seed  int64
	fold  func(s *S)
	merge func(s *S, stripe int, discard bool) int

	// sweep, visit and discard are the running pass's parameters, read by
	// chunk and mergeStripe, the closures built once in NewSweeper:
	// re-binding fields is free, so a pass allocates no closure. cells[s]
	// is stripe s's merged cell count.
	sweep       uint64
	visit       func(s *S, st *rng.Stream, doc int)
	discard     bool
	cells       []int
	chunk       func(g, c, lo, hi int)
	mergeStripe func(_, s, lo, hi int)
}

// NewSweeper returns the driver of n documents whose deltas hold cells
// cells each, drawing streams from seed. state builds one slot's state,
// whose accumulators list their cells by stripes stripes. fold runs on
// the worker at each chunk's end: it folds the chunk's changes into the
// slot's accumulator and resets them and any per-chunk cache. merge adds
// stripe stripe of one slot's accumulator into the global tables, resets
// it and returns the number of cells it visited; with discard set it
// only resets. Every stripe's merge runs over every slot.
func NewSweeper[S any](o Opts, n, cells int, seed int64, state func(stripes int) S,
	fold func(s *S), merge func(s *S, stripe int, discard bool) int) *Sweeper[S] {
	nc := 0
	if n > 0 {
		nc = min(SamplerChunks(n, cells), n)
	}
	w := min(o.Workers(), nc)
	p := &Sweeper[S]{Slots: make([]Padded[Slot[S]], w), o: o, n: n, nc: nc, seed: seed,
		fold: fold, merge: merge, cells: make([]int, w)}
	for g := range p.Slots {
		p.Slots[g].V.State = state(w)
	}
	p.chunk = func(g, _, lo, hi int) {
		sl := &p.Slots[g].V
		for di := lo; di < hi; di++ {
			sl.Rng = rng.NewStream(p.seed, uint64(di), p.sweep)
			p.visit(&sl.State, &sl.Rng, di)
		}
		p.fold(&sl.State)
	}
	p.mergeStripe = func(_, s, _, _ int) {
		n := 0
		for g := range p.Slots {
			n += p.merge(&p.Slots[g].V.State, s, p.discard)
		}
		p.cells[s] = n
	}
	return p
}

// Chunks returns the number of chunks a pass splits the documents into.
func (p *Sweeper[S]) Chunks() int { return p.nc }

// Pass runs visit over every document (sweep 0 is the initialization
// pass; Gibbs sweeps count from 1). end, when non-nil, runs after every
// chunk finishes and before the merge, while the globals are still
// frozen. A cancelled pass or an end error leaves the globals unchanged:
// the accumulators are discarded, so the next pass starts from clean
// slots, and the error is returned. A pass over zero documents is a no-op.
func (p *Sweeper[S]) Pass(sweep uint64, visit func(s *S, st *rng.Stream, doc int), end func() error) error {
	if p.n <= 0 {
		return p.o.Err()
	}
	var start time.Time
	if p.Stats != nil {
		start = time.Now()
	}
	p.sweep, p.visit = sweep, visit
	err := runChunks(p.o, p.n, p.nc, len(p.Slots), p.chunk)
	p.visit = nil // drop the kernel's references
	if err == nil && end != nil {
		err = end()
	}
	if err != nil {
		p.runMerge(true)
		return err
	}
	if p.Stats == nil {
		p.runMerge(false)
		return nil
	}
	mergeStart := time.Now()
	p.Stats.Cells += int64(p.runMerge(false))
	p.Stats.Merge += time.Since(mergeStart)
	p.Stats.Wall += time.Since(start)
	return nil
}

// runMerge merges (or, with discard, resets) every stripe on one worker
// per stripe and returns the cells visited. It runs without the pass's
// context, so a cancellation cannot leave the globals half merged, and
// without its pool observer, so the sampling pass stays the pass's one
// pool record.
func (p *Sweeper[S]) runMerge(discard bool) int {
	p.discard = discard
	stripes := len(p.Slots)
	runChunks(Opts{}, stripes, stripes, stripes, p.mergeStripe)
	n := 0
	for _, c := range p.cells {
		n += c
	}
	return n
}
