package lda

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"lesm/internal/obs"
)

// collectRecorder gathers every event for assertions.
type collectRecorder struct {
	mu     sync.Mutex
	sweeps []obs.SweepStats
	pools  []obs.PoolStats
}

func (c *collectRecorder) RecordSweep(s obs.SweepStats) {
	c.mu.Lock()
	c.sweeps = append(c.sweeps, s)
	c.mu.Unlock()
}

func (c *collectRecorder) RecordPool(p obs.PoolStats) {
	c.mu.Lock()
	c.pools = append(c.pools, p)
	c.mu.Unlock()
}

// TestRecorderBitIdentity is the tentpole contract: attaching a Recorder
// (with the convergence probe on) must not perturb the fitted model in
// any way, for both sampler cores, at serial and high parallelism.
func TestRecorderBitIdentity(t *testing.T) {
	docs, _ := synthCorpus(60, 24, 11)
	for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
		for _, p := range []int{1, 8} {
			cfg := Config{K: 3, Iters: 12, Seed: 7, Sampler: sampler, P: p}
			base := Must(Run(docs, 10, cfg))

			rec := &collectRecorder{}
			cfg.Rec, cfg.ProbeEvery = rec, 4
			got := Must(Run(docs, 10, cfg))

			if !reflect.DeepEqual(base.Z, got.Z) || !reflect.DeepEqual(base.NKV, got.NKV) ||
				!reflect.DeepEqual(base.NK, got.NK) || !reflect.DeepEqual(base.Theta, got.Theta) ||
				!reflect.DeepEqual(base.Phi, got.Phi) {
				t.Fatalf("%s P=%d: model differs with recorder attached", sampler, p)
			}
			if len(rec.sweeps) != cfg.Iters {
				t.Fatalf("%s P=%d: %d sweep records, want %d", sampler, p, len(rec.sweeps), cfg.Iters)
			}
		}
	}
}

// TestRecorderBitIdentityPhrases is the same contract for the phrase
// kernels of RunPhrases.
func TestRecorderBitIdentityPhrases(t *testing.T) {
	raw, _ := synthCorpus(40, 18, 13)
	docs := make([]PhraseDoc, len(raw))
	for i, d := range raw {
		// Alternate unigrams and bigrams so both phrase paths run.
		var pd PhraseDoc
		for j := 0; j < len(d); {
			if j%3 == 0 && j+1 < len(d) {
				pd = append(pd, []int{d[j], d[j+1]})
				j += 2
			} else {
				pd = append(pd, []int{d[j]})
				j++
			}
		}
		docs[i] = pd
	}
	for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
		for _, p := range []int{1, 8} {
			cfg := Config{K: 3, Iters: 8, Seed: 17, Sampler: sampler, P: p}
			base := Must(RunPhrases(docs, 10, cfg))
			rec := &collectRecorder{}
			cfg.Rec, cfg.ProbeEvery = rec, 3
			got := Must(RunPhrases(docs, 10, cfg))
			if !reflect.DeepEqual(base.PhraseZ, got.PhraseZ) || !reflect.DeepEqual(base.NKV, got.NKV) ||
				!reflect.DeepEqual(base.Theta, got.Theta) {
				t.Fatalf("phrases %s P=%d: model differs with recorder attached", sampler, p)
			}
			if len(rec.sweeps) != cfg.Iters {
				t.Fatalf("phrases %s P=%d: %d sweep records, want %d", sampler, p, len(rec.sweeps), cfg.Iters)
			}
		}
	}
}

// TestRecordedSweepStats checks the contents of the records: monotonic
// sweep numbers, exact token totals, changed <= tokens, MH proposal
// accounting, and the probe firing exactly on its schedule.
func TestRecordedSweepStats(t *testing.T) {
	docs, _ := synthCorpus(60, 24, 19)
	rec := &collectRecorder{}
	cfg := Config{K: 3, Iters: 10, Seed: 23, Sampler: SamplerMH, P: 4, Rec: rec, ProbeEvery: 4}
	Must(Run(docs, 10, cfg))

	if len(rec.sweeps) != cfg.Iters {
		t.Fatalf("%d sweep records, want %d", len(rec.sweeps), cfg.Iters)
	}
	wantTokens := int64(60 * 24)
	for i, s := range rec.sweeps {
		if s.Sweep != i+1 || s.Sweeps != cfg.Iters {
			t.Fatalf("record %d: sweep %d/%d, want %d/%d", i, s.Sweep, s.Sweeps, i+1, cfg.Iters)
		}
		if s.Engine != "lda" {
			t.Fatalf("record %d: engine %q, want lda", i, s.Engine)
		}
		if s.Tokens != wantTokens {
			t.Fatalf("record %d: tokens %d, want %d", i, s.Tokens, wantTokens)
		}
		if s.Changed < 0 || s.Changed > s.Tokens {
			t.Fatalf("record %d: changed %d outside [0, %d]", i, s.Changed, s.Tokens)
		}
		if s.WordAccepts > s.WordProposals || s.DocAccepts > s.DocProposals {
			t.Fatalf("record %d: accepts exceed proposals: %+v", i, s)
		}
		if s.WordProposals == 0 {
			t.Fatalf("record %d: MH core made no word proposals", i)
		}
		probeSweep := s.Sweep%cfg.ProbeEvery == 0 || s.Sweep == cfg.Iters
		if probeSweep == math.IsNaN(s.LogLikelihood) {
			t.Fatalf("record %d: probe on sweep %d = %v, want probe=%v",
				i, s.Sweep, s.LogLikelihood, probeSweep)
		}
		if probeSweep && s.LogLikelihood >= 0 {
			t.Fatalf("record %d: corpus LL %v, want negative", i, s.LogLikelihood)
		}
		if s.Chunks <= 0 || s.DeltaCells <= 0 {
			t.Fatalf("record %d: chunks %d / delta cells %d, want positive", i, s.Chunks, s.DeltaCells)
		}
	}
	if len(rec.pools) == 0 {
		t.Fatal("no pool telemetry recorded")
	}
	for i, p := range rec.pools {
		if p.Chunks <= 0 || p.Workers <= 0 {
			t.Fatalf("pool record %d: %+v", i, p)
		}
	}
}

// TestAliasRebuildAccounting locks the Model.AliasRebuilds bookkeeping
// to the recorded per-sweep attribution: the trace's rebuild counts must
// sum to the model's figure at any P, and the MH figure must match the
// 1 + floor((Iters-1)/AliasRefresh) schedule.
func TestAliasRebuildAccounting(t *testing.T) {
	docs, _ := synthCorpus(60, 24, 29)
	cases := []struct {
		sampler Sampler
		refresh int
		want    int
	}{
		{SamplerDense, 0, 0},
		{SamplerMH, 4, 1 + (10-1)/4},
		{SamplerMH, 1, 10}, // rebuild every sweep: initial + 9
	}
	for _, tc := range cases {
		var perP []int
		for _, p := range []int{1, 8} {
			rec := &collectRecorder{}
			cfg := Config{K: 3, Iters: 10, Seed: 31, Sampler: tc.sampler,
				AliasRefresh: tc.refresh, P: p, Rec: rec}
			m := Must(Run(docs, 10, cfg))
			if m.AliasRebuilds != tc.want {
				t.Fatalf("%s refresh=%d P=%d: Model.AliasRebuilds = %d, want %d",
					tc.sampler, tc.refresh, p, m.AliasRebuilds, tc.want)
			}
			sum := 0
			for _, s := range rec.sweeps {
				if s.AliasRebuilds < 0 {
					t.Fatalf("%s P=%d sweep %d: negative rebuild count", tc.sampler, p, s.Sweep)
				}
				sum += s.AliasRebuilds
			}
			if sum != m.AliasRebuilds {
				t.Fatalf("%s refresh=%d P=%d: recorded rebuilds sum %d != model %d",
					tc.sampler, tc.refresh, p, sum, m.AliasRebuilds)
			}
			perP = append(perP, sum)
		}
		if perP[0] != perP[1] {
			t.Fatalf("%s refresh=%d: rebuild count differs across P: %v", tc.sampler, tc.refresh, perP)
		}
	}
}

// cancelRecorder cancels a context from inside RecordSweep — simulating
// an operator killing a fit mid-run while a trace is attached.
type cancelRecorder struct {
	at     int
	cancel context.CancelFunc
	inner  obs.Recorder
}

func (c *cancelRecorder) RecordSweep(s obs.SweepStats) {
	c.inner.RecordSweep(s)
	if s.Sweep == c.at {
		c.cancel()
	}
}

func (c *cancelRecorder) RecordPool(p obs.PoolStats) { c.inner.RecordPool(p) }

// TestCancellationFlushesRecorder: a fit cancelled mid-run still emits a
// record per completed sweep and nothing for the aborted one, and the
// run surfaces the context error.
func TestCancellationFlushesRecorder(t *testing.T) {
	docs, _ := synthCorpus(60, 24, 37)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &collectRecorder{}
	rec := &cancelRecorder{at: 3, cancel: cancel, inner: col}
	_, err := Run(docs, 10, Config{K: 3, Iters: 10, Seed: 41, Rec: rec, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(col.sweeps) != 3 {
		t.Fatalf("%d sweep records after cancel at sweep 3, want 3", len(col.sweeps))
	}
	for i, s := range col.sweeps {
		if s.Sweep != i+1 {
			t.Fatalf("record %d: sweep %d, want %d", i, s.Sweep, i+1)
		}
	}
}

// TestFoldInRecorder: fold-in emits one aggregate record per batch with
// the exact token-visit total, and recording does not perturb theta.
func TestFoldInRecorder(t *testing.T) {
	docs, _ := synthCorpus(60, 24, 43)
	m := Must(Run(docs, 10, Config{K: 3, Iters: 30, Seed: 47}))
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
	queries := [][]int{{0, 1, 2, 3}, {5, 6, 7}, {2, 7, 9, 1, 4}}
	cfg := FoldInConfig{Seed: 3, Sweeps: 5}
	base, err := FoldIn(fm, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &collectRecorder{}
	cfg.Rec = rec
	got, err := FoldIn(fm, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("theta differs with recorder attached")
	}
	if len(rec.sweeps) != 1 {
		t.Fatalf("%d records per batch, want 1", len(rec.sweeps))
	}
	s := rec.sweeps[0]
	if s.Engine != "foldin" {
		t.Fatalf("engine %q, want foldin", s.Engine)
	}
	wantTokens := int64((4 + 3 + 5) * (cfg.Sweeps + 1)) // init pass + sweeps
	if s.Tokens != wantTokens {
		t.Fatalf("tokens %d, want %d", s.Tokens, wantTokens)
	}
	if s.Docs != len(queries) {
		t.Fatalf("docs %d, want %d", s.Docs, len(queries))
	}
}

// TestNilRecorderSweepAllocFree is the grep-gated zero-cost contract:
// with no Recorder attached, a serial Gibbs sweep through the real sweep
// driver performs zero heap allocations — the counters are plain int
// bumps on pre-allocated chunk state, the kernel closure is built once per
// fit, and no timing or aggregation code runs. The MH row holds its alias
// tables for the whole measurement (an async rebuild legitimately
// allocates its completion channel).
func TestNilRecorderSweepAllocFree(t *testing.T) {
	docs, _ := synthCorpus(32, 16, 53)
	for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
		f, err := newFit("lda", tokenDocs(docs), 10, Config{
			K: 3, Alpha: 0.5, Iters: 1, Seed: 1, P: 1, Sampler: sampler, AliasRefresh: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		kernel := f.denseTokenKernel(docs)
		if sampler == SamplerMH {
			kernel = f.mhTokenKernel(docs)
		}
		sweep := 0
		allocs := testing.AllocsPerRun(10, func() {
			sweep++
			if err := f.sweep(sweep, kernel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: nil-recorder serial sweep allocates %.1f times, want 0", sampler, allocs)
		}
	}
}
