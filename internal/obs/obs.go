package obs

import (
	"math"
	"time"
)

// SweepStats is one completed sweep of one engine's sampler. Producers
// fill only the fields that apply to their core: the MH proposal
// counters and AliasRebuilds stay zero for the dense core, the
// merge/delta fields stay zero for engines without chunked delta tables.
type SweepStats struct {
	// Engine names the producer: "lda" (token Gibbs fit), "phraselda",
	// "foldin" (one record per fold-in batch), "tng", "cathy".
	Engine string
	// Label is an optional sub-scope within the engine, e.g. the
	// hierarchy node path and restart index for CATHY EM runs.
	Label string

	Sweep  int // 1-based sweep number within the run
	Sweeps int // planned sweeps for the run (0 if open-ended)
	Docs   int // documents visited this sweep

	Tokens  int64 // token-sweep visits this sweep
	Changed int64 // visits whose topic assignment changed

	// MH proposal accounting. A proposal is counted only when it names
	// a topic different from the incumbent (self-proposals are no-ops
	// and would inflate the accept rate toward 1).
	WordProposals int64
	WordAccepts   int64
	DocProposals  int64
	DocAccepts    int64

	AliasRebuilds int // alias-table rebuilds attributed to this sweep
	// RebuildTime is the wall time of those rebuilds. A rebuild runs
	// inside the sweep, between its chunk pass and the merge, so it is
	// part of the sweep's wall time; the fit's initial build, made before
	// sweep 1, is charged to sweep 1.
	RebuildTime time.Duration

	Chunks     int           // parallel chunks the sweep was split into
	DeltaCells int64         // touched accumulator cells merged
	MergeTime  time.Duration // striped accumulator merge wall time
	SweepTime  time.Duration // whole-sweep wall time

	// LogLikelihood is the read-only convergence probe's corpus
	// log-likelihood, or NaN when no probe ran this sweep.
	LogLikelihood float64
}

// TokensPerSec is the sweep's sampling throughput (0 if untimed).
func (s SweepStats) TokensPerSec() float64 {
	if s.SweepTime <= 0 {
		return 0
	}
	return float64(s.Tokens) / s.SweepTime.Seconds()
}

// ChangedFrac is the fraction of token visits that moved topic.
func (s SweepStats) ChangedFrac() float64 {
	if s.Tokens == 0 {
		return 0
	}
	return float64(s.Changed) / float64(s.Tokens)
}

// WordAcceptRate is accepted/attempted for non-trivial word proposals
// (NaN when the sweep made none).
func (s SweepStats) WordAcceptRate() float64 {
	return rate(s.WordAccepts, s.WordProposals)
}

// DocAcceptRate is accepted/attempted for non-trivial doc proposals
// (NaN when the sweep made none).
func (s SweepStats) DocAcceptRate() float64 {
	return rate(s.DocAccepts, s.DocProposals)
}

func rate(num, den int64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// Perplexity derives exp(-LL/Tokens) from the probe (NaN when the
// sweep carried no probe or visited no tokens).
func (s SweepStats) Perplexity() float64 {
	if math.IsNaN(s.LogLikelihood) || s.Tokens == 0 {
		return math.NaN()
	}
	return math.Exp(-s.LogLikelihood / float64(s.Tokens))
}

// PoolStats is one parallel pass through internal/par: how long chunks
// waited for a worker and how long they ran, summed over chunks.
type PoolStats struct {
	Chunks  int
	Workers int
	Wait    time.Duration // sum over chunks of (dequeue time - pass start)
	Exec    time.Duration // sum over chunks of chunk body wall time
	Wall    time.Duration // whole pass wall time
}

// PoolObserver receives pool-level telemetry. internal/par depends
// only on this narrow interface, not on the full Recorder.
type PoolObserver interface {
	RecordPool(PoolStats)
}

// Recorder receives per-sweep sampler events and pool telemetry.
// Implementations must be safe for concurrent use: fit sweeps emit
// serially, but fold-in batches on a server record from many
// goroutines at once.
type Recorder interface {
	RecordSweep(SweepStats)
	PoolObserver
}

// CheckpointStats is one delivered fit checkpoint: which engine's run,
// the sweep boundary it captured, and how long building and handing it
// off (typically the durable write) took.
type CheckpointStats struct {
	Engine string
	Sweep  int
	Took   time.Duration
}

// CheckpointRecorder is the optional extension a Recorder implements to
// also receive checkpoint events. The fit cores type-assert for it, so
// recorders that don't care need no changes.
type CheckpointRecorder interface {
	RecordCheckpoint(CheckpointStats)
}

// multi fans events out to several recorders in order.
type multi []Recorder

func (m multi) RecordSweep(s SweepStats) {
	for _, r := range m {
		r.RecordSweep(s)
	}
}

func (m multi) RecordPool(p PoolStats) {
	for _, r := range m {
		r.RecordPool(p)
	}
}

// RecordCheckpoint forwards to the members that implement the optional
// CheckpointRecorder extension. multi always satisfies it so a combined
// recorder never hides a member's checkpoint interest.
func (m multi) RecordCheckpoint(c CheckpointStats) {
	for _, r := range m {
		if cr, ok := r.(CheckpointRecorder); ok {
			cr.RecordCheckpoint(c)
		}
	}
}

// Multi combines recorders into one, skipping nils. It returns nil
// when nothing remains (so callers keep the zero-cost nil path) and
// the sole survivor unwrapped when only one does.
func Multi(rs ...Recorder) Recorder {
	m := make(multi, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			m = append(m, r)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}
