package lda

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"lesm/internal/obs"
)

// Crash-safe fitting: checkpoint and resume.
//
// A checkpoint is the complete sampler state at a sweep boundary. Because
// the determinism contract keys every per-document PRNG stream by
// (Seed, doc, sweep) and derives chunk boundaries only from the corpus
// shape, the state needed to reproduce the remainder of a fit is tiny:
// the topic assignments Z (counts are a pure function of Z), the sweep
// number, and — for the MH core — the frozen count table its active alias
// proposal tables were built from. A resumed fit rebuilds nDK/nKV/nK by
// replaying Z, reconstructs the alias state, and re-enters the sweep loop
// at Sweep+1; from there it consumes exactly the streams the uninterrupted
// fit would have consumed, so the final model is bit-identical at any
// Config.P (test-gated in resume_test.go).

// ErrStopped is returned by Run and RunPhrases when Config.Stop requested
// a graceful stop: the run halted at a sweep boundary after handing a
// final checkpoint to Config.CheckpointFunc (when one is set). No model is
// returned — resume from the checkpoint to finish the fit.
var ErrStopped = errors.New("lda: fit stopped at a sweep boundary by Config.Stop")

// Fingerprint identifies the exact fit a checkpoint belongs to: the
// effective configuration (post-defaulting), the resolved sampling core,
// and a hash of the corpus shape and token ids. Resume refuses a
// checkpoint whose fingerprint does not match the run it is handed to —
// a mismatched corpus or config would silently produce a model from
// neither trajectory.
type Fingerprint struct {
	// Engine is "lda" for Run, "phraselda" for RunPhrases.
	Engine string
	// Sampler is the resolved core (never SamplerAuto).
	Sampler Sampler
	// K and V are the content-topic count and vocabulary size.
	K, V int
	// Alpha, Beta and BGWeight are the effective (post-default) priors.
	Alpha, Beta, BGWeight float64
	Background            bool
	Iters                 int
	Seed                  int64
	// AliasRefresh is the effective MH rebuild cadence (set for every
	// core — it is part of the defaulted config even when unused).
	AliasRefresh int
	// Docs and Tokens are the corpus dimensions; CorpusHash is an FNV-1a
	// digest of the full document/phrase structure and token ids.
	Docs       int
	Tokens     int64
	CorpusHash uint64
}

// Checkpoint is the resumable state of a Gibbs fit at the end of sweep
// Sweep. It is self-contained and owns all of its memory (Z and
// MHSourceKV are deep copies), so it may outlive the run and cross
// goroutines; internal/store persists it in the LESMCKPT binary format.
type Checkpoint struct {
	Fingerprint Fingerprint
	// Sweep is the last completed sweep (1-based).
	Sweep int
	// Z holds the per-document topic assignments: per token for Run, per
	// phrase for RunPhrases.
	Z [][]int
	// AliasRebuilds is the number of alias-table builds the trajectory has
	// performed so far (MH core only; 0 otherwise). Restored so a resumed
	// model reports the same Model.AliasRebuilds as the uninterrupted fit.
	AliasRebuilds int
	// MHStale is the MH rebuild schedule's staleness counter at the
	// boundary: how many sweeps the active tables have aged since they
	// were swapped in. 0 for the dense core.
	MHStale int
	// MHSourceKV is the frozen topic-word count table the MH core's
	// active alias tables were built from — generally *older* than the
	// counts implied by Z (tables rebuild every AliasRefresh sweeps), so
	// it must travel with the checkpoint to reproduce the proposal
	// distributions exactly. nil for the dense core.
	MHSourceKV [][]int
}

// hashU64 feeds one little-endian u64 into an FNV-1a digest.
func hashU64(h *uint64, v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		*h ^= v & 0xff
		*h *= prime
		v >>= 8
	}
}

// hashTokenDocs digests a token corpus: doc count, then each document's
// length and token ids. Any insertion, deletion, reorder or relabel
// changes the digest.
func hashTokenDocs(docs [][]int) uint64 {
	h := fnv.New64a().Sum64() // offset basis
	hashU64(&h, uint64(len(docs)))
	for _, doc := range docs {
		hashU64(&h, uint64(len(doc)))
		for _, w := range doc {
			hashU64(&h, uint64(w))
		}
	}
	return h
}

// hashPhraseDocs digests a phrase corpus including its segmentation: two
// corpora with the same tokens but different phrase boundaries hash
// differently (their trajectories differ).
func hashPhraseDocs(docs []PhraseDoc) uint64 {
	h := fnv.New64a().Sum64()
	hashU64(&h, uint64(len(docs)))
	for _, doc := range docs {
		hashU64(&h, uint64(len(doc)))
		for _, phrase := range doc {
			hashU64(&h, uint64(len(phrase)))
			for _, w := range phrase {
				hashU64(&h, uint64(w))
			}
		}
	}
	return h
}

// newFingerprint builds the fingerprint of a (defaulted) run.
func newFingerprint(engine string, core Sampler, cfg Config, v, docs int, tokens int64, corpusHash uint64) Fingerprint {
	return Fingerprint{
		Engine: engine, Sampler: core, K: cfg.K, V: v,
		Alpha: cfg.Alpha, Beta: cfg.Beta, BGWeight: cfg.BGWeight,
		Background: cfg.Background, Iters: cfg.Iters, Seed: cfg.Seed,
		AliasRefresh: cfg.AliasRefresh,
		Docs:         docs, Tokens: tokens, CorpusHash: corpusHash,
	}
}

// check validates cp against the run it is being resumed into: exact
// fingerprint equality, a sweep within the run, assignments shaped like
// the corpus's slots with every topic in range, and — when the run's core
// is MH — a complete source count table.
func (cp *Checkpoint) check(fp Fingerprint, kTotal int, c corpus) error {
	if cp.Fingerprint != fp {
		return fmt.Errorf("lda: resume checkpoint does not match this run (checkpoint %+v, run %+v)", cp.Fingerprint, fp)
	}
	if cp.Sweep < 1 || cp.Sweep > fp.Iters {
		return fmt.Errorf("lda: resume checkpoint sweep %d outside [1, %d]", cp.Sweep, fp.Iters)
	}
	if len(cp.Z) != c.numDocs() {
		return fmt.Errorf("lda: resume checkpoint has %d documents, corpus has %d", len(cp.Z), c.numDocs())
	}
	for di, zd := range cp.Z {
		if len(zd) != c.slots(di) {
			return fmt.Errorf("lda: resume checkpoint doc %d has %d assignments, corpus wants %d", di, len(zd), c.slots(di))
		}
		for i, k := range zd {
			if k < 0 || k >= kTotal {
				return fmt.Errorf("lda: resume checkpoint doc %d slot %d: topic %d outside [0, %d)", di, i, k, kTotal)
			}
		}
	}
	if fp.Sampler == SamplerMH && c.numDocs() > 0 {
		if cp.AliasRebuilds < 1 {
			return fmt.Errorf("lda: resume checkpoint for the MH core records %d alias rebuilds, need >= 1", cp.AliasRebuilds)
		}
		if cp.MHStale < 0 {
			return fmt.Errorf("lda: resume checkpoint MH staleness %d, need >= 0", cp.MHStale)
		}
		if len(cp.MHSourceKV) != kTotal {
			return fmt.Errorf("lda: resume checkpoint MH source table has %d topics, run has %d", len(cp.MHSourceKV), kTotal)
		}
		for k, row := range cp.MHSourceKV {
			if len(row) != fp.V {
				return fmt.Errorf("lda: resume checkpoint MH source table topic %d has %d words, vocabulary is %d", k, len(row), fp.V)
			}
			for w, c := range row {
				if c < 0 {
					return fmt.Errorf("lda: resume checkpoint MH source count [%d][%d] = %d, need >= 0", k, w, c)
				}
			}
		}
	}
	return nil
}

// restoreCounts replays the checkpoint's assignments into freshly zeroed
// count tables, exactly reproducing the tables the uninterrupted fit held
// at the end of sweep cp.Sweep: each slot adds its words to its topic.
func restoreCounts(cp *Checkpoint, c corpus, kTotal int, nDK [][]int, nKV [][]int, nK []int, z [][]int) {
	for di, zd := range cp.Z {
		row := make([]int, len(zd))
		copy(row, zd)
		z[di] = row
		nDK[di] = make([]int, kTotal)
		for slot, k := range row {
			ws := c.words(di, slot)
			nDK[di][k] += len(ws)
			nK[k] += len(ws)
			for _, w := range ws {
				nKV[k][w]++
			}
		}
	}
}

// copyTable deep-copies a count table.
func copyTable(t [][]int) [][]int {
	out := make([][]int, len(t))
	for i, row := range t {
		r := make([]int, len(row))
		copy(r, row)
		out[i] = r
	}
	return out
}

// ckptState drives the checkpoint/stop protocol at sweep boundaries. A
// nil *ckptState (no CheckpointFunc, no Stop) makes boundary a single nil
// check, preserving the unconfigured path's zero cost.
type ckptState struct {
	every int
	fn    func(*Checkpoint) error
	stop  func() bool
	fp    Fingerprint
	// z aliases the run's live assignment arrays (token z or phrase zP);
	// snapshot deep-copies them at the boundary, after the sweep's deltas
	// have merged, so the copy is a consistent end-of-sweep state.
	z [][]int
	// mh is the MH run's rebuild schedule (nil for the dense core), the
	// source of the alias-state fields of a checkpoint.
	mh *mhRebuildSchedule
	// rec receives one RecordCheckpoint per delivered checkpoint when the
	// run's Recorder implements the optional obs.CheckpointRecorder.
	rec obs.CheckpointRecorder
}

// newCkptState returns nil when the config neither checkpoints nor stops.
func newCkptState(cfg Config, fp Fingerprint, z [][]int) *ckptState {
	if cfg.CheckpointFunc == nil && cfg.Stop == nil {
		return nil
	}
	c := &ckptState{
		every: cfg.CheckpointEvery, fn: cfg.CheckpointFunc, stop: cfg.Stop,
		fp: fp, z: z,
	}
	if cr, ok := cfg.Rec.(obs.CheckpointRecorder); ok {
		c.rec = cr
	}
	return c
}

// wantsSnapshots reports whether checkpoints will actually be built — the
// MH schedule only pays for source-table copies when they will be read.
func (c *ckptState) wantsSnapshots() bool { return c != nil && c.fn != nil }

// boundary runs the protocol at the end of sweep s: deliver a checkpoint
// on the CheckpointEvery cadence or when a stop was requested, then honor
// the stop with ErrStopped. A CheckpointFunc error aborts the fit.
func (c *ckptState) boundary(sweep int) error {
	if c == nil {
		return nil
	}
	stopping := c.stop != nil && c.stop()
	if c.fn != nil && (stopping || (c.every > 0 && sweep%c.every == 0)) {
		t0 := time.Now()
		if err := c.fn(c.snapshot(sweep)); err != nil {
			return err
		}
		if c.rec != nil {
			c.rec.RecordCheckpoint(obs.CheckpointStats{
				Engine: c.fp.Engine, Sweep: sweep, Took: time.Since(t0),
			})
		}
	}
	if stopping {
		return ErrStopped
	}
	return nil
}

// snapshot builds a self-contained checkpoint of the end-of-sweep state.
func (c *ckptState) snapshot(sweep int) *Checkpoint {
	cp := &Checkpoint{Fingerprint: c.fp, Sweep: sweep, Z: copyTable(c.z)}
	if c.mh != nil {
		cp.AliasRebuilds = c.mh.Rebuilds
		cp.MHStale = c.mh.stale
		cp.MHSourceKV = copyTable(c.mh.srcKV)
	}
	return cp
}
