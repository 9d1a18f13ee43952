package par

import (
	"time"

	"lesm/internal/rng"
)

// Delta is one chunk's private diff against a flat []int count table.
// Hot loops read Cells directly; writes go through Add, which puts a cell
// on the dirty list on its first touch, so MergeInto costs O(cells
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

// MergeInto adds the touched cells into dst, resets the delta and returns
// the number of cells it visited.
func (d *Delta) MergeInto(dst []int) int {
	for _, i := range d.dirty {
		if c := d.Cells[i]; c != 0 {
			dst[i] += c
			d.Cells[i] = 0
		}
		d.touched[i] = false
	}
	n := len(d.dirty)
	d.dirty = d.dirty[:0]
	return n
}

// Slot is one chunk's private state in a Sweeper: the PRNG stream of the
// document being sampled and the engine's state S.
type Slot[S any] struct {
	Rng   rng.Stream
	State S
}

// PassStats are the timings a Sweeper accumulates while its Stats is set.
type PassStats struct {
	Cells int64         // delta cells merged
	Merge time.Duration // ordered merge wall time
	Wall  time.Duration // pass wall time, merge included
}

// Sweeper is the chunked delayed-update pass driver of the collapsed
// Gibbs samplers (AD-LDA, Newman et al. 2009). A pass splits n documents
// into the SamplerChunks chunking and runs the chunks on the worker
// pool; each chunk samples against the frozen global tables plus its own
// delta, kept in its Slot. Before each document the slot's stream is
// reseeded to the document's (seed, doc, sweep) stream. After all chunks
// finish, the deltas merge into the globals in chunk order. Chunk
// boundaries and streams depend only on (seed, n, sweep), never on the
// worker count, so the sampled trajectory is bit-identical at any P.
//
// Each slot is a Padded value and its arrays should come from PadSlice,
// so no cache line holds words of two chunks.
type Sweeper[S any] struct {
	// Slots holds one slot per chunk, min(SamplerChunks(n, cells), n) of
	// them.
	Slots []Padded[Slot[S]]
	// Stats, when non-nil, accumulates every pass's timings and merged
	// cells; nil keeps passes free of time calls.
	Stats *PassStats

	o     Opts
	n     int
	seed  int64
	merge func(s *S) int

	// sweep and visit are the running pass's parameters, read by chunk,
	// the chunk closure built once in NewSweeper: re-binding fields is
	// free, so a pass allocates no closure.
	sweep uint64
	visit func(s *S, st *rng.Stream, doc int)
	chunk func(c, lo, hi int)
}

// NewSweeper returns the driver of n documents whose per-chunk deltas
// hold cells cells each, drawing streams from seed. state builds one
// chunk's state; merge folds one chunk's deltas into the global tables,
// resets them and returns the number of cells it merged.
func NewSweeper[S any](o Opts, n, cells int, seed int64, state func() S, merge func(s *S) int) *Sweeper[S] {
	nc := 0
	if n > 0 {
		nc = min(SamplerChunks(n, cells), n)
	}
	p := &Sweeper[S]{Slots: make([]Padded[Slot[S]], nc), o: o, n: n, seed: seed, merge: merge}
	for c := range p.Slots {
		p.Slots[c].V.State = state()
	}
	p.chunk = func(c, lo, hi int) {
		sl := &p.Slots[c].V
		for di := lo; di < hi; di++ {
			sl.Rng = rng.NewStream(p.seed, uint64(di), p.sweep)
			p.visit(&sl.State, &sl.Rng, di)
		}
	}
	return p
}

// Pass runs visit over every document (sweep 0 is the initialization
// pass; Gibbs sweeps count from 1). end, when non-nil, runs after every
// chunk finishes and before the merge, while the globals are still
// frozen; an end error aborts the pass unmerged. On cancellation the
// globals are left unchanged and the context error is returned. A pass
// over zero documents is a no-op.
func (p *Sweeper[S]) Pass(sweep uint64, visit func(s *S, st *rng.Stream, doc int), end func() error) error {
	if p.n <= 0 {
		return p.o.Err()
	}
	var start time.Time
	if p.Stats != nil {
		start = time.Now()
	}
	p.sweep, p.visit = sweep, visit
	err := ForChunksN(p.o, p.n, len(p.Slots), p.chunk)
	p.visit = nil // drop the kernel's references
	if err != nil {
		return err
	}
	if end != nil {
		if err := end(); err != nil {
			return err
		}
	}
	if p.Stats == nil {
		for c := range p.Slots {
			p.merge(&p.Slots[c].V.State)
		}
		return nil
	}
	mergeStart := time.Now()
	for c := range p.Slots {
		p.Stats.Cells += int64(p.merge(&p.Slots[c].V.State))
	}
	p.Stats.Merge += time.Since(mergeStart)
	p.Stats.Wall += time.Since(start)
	return nil
}
