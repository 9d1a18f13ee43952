// MH-core invariants: the alias-proposal kernel must target the *exact*
// collapsed conditional even when its word-proposal tables are stale
// (chi-square check), honor the bit-identical-at-any-P determinism
// contract for Run / RunPhrases / FoldIn, amortize alias rebuilds to
// < 1 per sweep, resolve SamplerAuto per workload, match the dense core's
// held-out quality, and the config knobs must validate instead of
// panicking.
package lda

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lesm/internal/linalg"
	"lesm/internal/par"
)

// TestMHKernelMatchesExactConditional drives mhChunk.sampleToken as a
// single-site Markov chain with the surrounding counts held fixed and the
// word-proposal tables built from *deliberately different* (stale) counts.
// The chain's stationary distribution must still be the exact collapsed
// conditional computed from the current counts — staleness may only slow
// mixing, never shift the target. The stream is counter-based, so the
// chi-square statistic is deterministic: the threshold is ~2x the 99.9%
// critical value of chi2(K-1), far below what a missing or miswired
// acceptance correction produces.
func TestMHKernelMatchesExactConditional(t *testing.T) {
	const (
		kTotal = 8
		v      = 4
		w      = 1
		beta   = 0.1
		n      = 300000
	)
	alpha := []float64{0.3, 0.7, 0.1, 1.2, 0.4, 0.05, 0.9, 0.2}

	// Base counts: the surrounding state with the token under test removed.
	// The exact conditional is computed from these; the chunk sees the
	// *full* counts (base + the token at the chain's current topic), per
	// the virtual-removal convention.
	base := [][]int{
		{3, 9, 0, 2}, {1, 0, 4, 4}, {0, 2, 0, 0}, {5, 7, 1, 3},
		{0, 0, 0, 6}, {2, 1, 8, 0}, {4, 5, 2, 1}, {0, 3, 3, 2},
	}
	baseK := make([]int, kTotal)
	for k, row := range base {
		for _, c := range row {
			baseK[k] += c
		}
	}
	// Stale counts for the proposal tables: shifted and partly zeroed so
	// the proposal visibly disagrees with the target.
	stale := [][]int{
		{0, 1, 2, 0}, {9, 9, 0, 1}, {0, 0, 5, 5}, {1, 0, 0, 0},
		{3, 8, 1, 2}, {0, 4, 0, 7}, {2, 0, 6, 0}, {5, 2, 1, 4},
	}

	prop := newMHProposal(v, kTotal, beta)
	if err := prop.build(par.Opts{}, wordMajor(stale, kTotal, v)); err != nil {
		t.Fatal(err)
	}

	// Document state: topic tallies of the *other* tokens; zDoc mirrors
	// them slot by slot, with slot i appended for the token under test at
	// its starting topic 0.
	baseDK := []int{2, 0, 1, 3, 0, 1, 0, 2}
	var zDoc []int
	for k, c := range baseDK {
		for j := 0; j < c; j++ {
			_ = j
			zDoc = append(zDoc, k)
		}
	}
	i := len(zDoc)
	zDoc = append(zDoc, 0) // slot i; sampleToken updates it in place

	// Full counts seen by the chunk: base + the token at its current topic.
	// The chain moves these on every accepted transition, exactly as runMH
	// does.
	nKV := make([][]int, kTotal)
	nK := append([]int(nil), baseK...)
	nDK := append([]int(nil), baseDK...)
	for k := range nKV {
		nKV[k] = append([]int(nil), base[k]...)
	}
	nKV[0][w]++
	nK[0]++
	nDK[0]++

	dl := newDelta(kTotal, v)
	ch := newMHChunk(alpha, beta, v, wordMajor(nKV, kTotal, v), nK, &dl, prop, linalg.NewAlias(alpha), false)
	ch.beginDoc(nDK, nil)

	// Exact conditional from the base (token-removed) counts.
	vb := float64(v) * beta
	exact := make([]float64, kTotal)
	total := 0.0
	for k := 0; k < kTotal; k++ {
		exact[k] = (float64(baseDK[k]) + alpha[k]) * (float64(base[k][w]) + beta) / (float64(baseK[k]) + vb)
		total += exact[k]
	}

	rng := newStream(77, 0, 1)
	hist := make([]int, kTotal)
	for it := 0; it < n; it++ {
		kPrev := zDoc[i]
		k := ch.sampleToken(w, zDoc, ch.nDK, i, &rng)
		if k != kPrev {
			// Move the counts exactly as runMH's visit loop does: through
			// the chunk's delta, keeping its denominator cache coherent.
			ch.adjust(kPrev, w, -1)
			ch.adjust(k, w, 1)
		}
		hist[k]++
	}
	chi2 := 0.0
	for k := 0; k < kTotal; k++ {
		exp := float64(n) * exact[k] / total
		d := float64(hist[k]) - exp
		chi2 += d * d / exp
	}
	// chi2(7) 99.9% critical value is 24.3; the kernel's serial
	// correlation inflates the statistic somewhat, a wrong target by
	// orders of magnitude.
	if chi2 > 50 {
		t.Fatalf("chi-square %.1f > 50 against exact conditional (hist %v)", chi2, hist)
	}
}

func TestMHRunDeterministicAcrossP(t *testing.T) {
	docs := bigSynthCorpus(160, 71)
	run := func(p int) *Model {
		return Must(Run(docs, 10, Config{K: 3, Iters: 30, Seed: 72, Background: true, P: p, Sampler: SamplerMH, AliasRefresh: 3}))
	}
	want := run(1)
	for _, p := range []int{2, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("MH P=%d model differs from P=1 model", p)
		}
	}
	if want.Sampler != SamplerMH {
		t.Fatalf("Model.Sampler = %q, want %q", want.Sampler, SamplerMH)
	}
	// 30 sweeps at refresh 3: initial build + ⌊29/3⌋ amortized rebuilds.
	if wantRebuilds := 1 + 29/3; want.AliasRebuilds != wantRebuilds {
		t.Fatalf("AliasRebuilds = %d, want %d", want.AliasRebuilds, wantRebuilds)
	}
}

func TestMHRunPhrasesDeterministicAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	docs := make([]PhraseDoc, 160)
	for d := range docs {
		top := d % 2
		var doc PhraseDoc
		for p := 0; p < 8; p++ {
			// Unigram phrases exercise the MH kernel; bigrams the dense
			// product fallback.
			doc = append(doc, []int{top*6 + rng.Intn(3)})
			doc = append(doc, []int{top*6 + rng.Intn(3), top*6 + 3 + rng.Intn(3)})
		}
		docs[d] = doc
	}
	run := func(p int) *Model {
		return Must(RunPhrases(docs, 12, Config{K: 2, Iters: 30, Seed: 74, P: p, Sampler: SamplerMH}))
	}
	want := run(1)
	for _, p := range []int{2, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("MH P=%d phrase model differs from P=1 model", p)
		}
	}
	if want.Sampler != SamplerMH || want.AliasRebuilds != 1+29/DefaultAliasRefresh {
		t.Fatalf("Sampler=%q AliasRebuilds=%d, want mh / %d", want.Sampler, want.AliasRebuilds, 1+29/DefaultAliasRefresh)
	}
}

// TestMHCancelledContextReturnsError pins that the MH loop propagates
// cancellation, both before the first sweep and mid-sampling with an
// alias rebuild due at every pass boundary.
func TestMHCancelledContextReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := bigSynthCorpus(160, 75)
	if m, err := Run(docs, 10, Config{K: 2, Iters: 30, Seed: 76, P: 4, Sampler: SamplerMH, Ctx: ctx}); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("Run: model=%v err=%v, want nil model and context.Canceled", m, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	docs2 := bigSynthCorpus(160, 77)
	go cancel2()
	if _, err := Run(docs2, 10, Config{K: 2, Iters: 10000, Seed: 78, P: 2, Sampler: SamplerMH, AliasRefresh: 1, Ctx: ctx2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sampling cancel: err = %v, want context.Canceled", err)
	}
}

// TestMHAliasStalenessStress runs the tightest rebuild cadence (the one
// alias buffer rebuilt in place at every pass boundary) at P=8 and checks
// the result is still bit-identical to P=1 — the test -race runs in CI to
// prove no sweep reads the tables while the boundary build writes them.
// Skipped under -short; the two 60-sweep fits dominate its runtime.
func TestMHAliasStalenessStress(t *testing.T) {
	if testing.Short() {
		t.Skip("staleness stress is slow; skipped under -short")
	}
	docs := bigSynthCorpus(256, 79)
	run := func(p int) *Model {
		return Must(Run(docs, 10, Config{K: 4, Iters: 60, Seed: 80, P: p, Sampler: SamplerMH, AliasRefresh: 1}))
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MH model with refresh=1 differs between P=1 and P=8")
	}
	// refresh=1 rebuilds every sweep: initial + one per later sweep.
	if a.AliasRebuilds != 60 {
		t.Fatalf("AliasRebuilds = %d, want 60", a.AliasRebuilds)
	}
}

// TestMHRetainedCountsMatchTables steps an MH fit sweep by sweep at P=2
// with a rebuild every third sweep and checks, after every sweep, that
// the retained counts are the ones the tables were built from: every
// word's Mass is the float sum of its retained row, density is the row
// plus β at every topic, and the row equals the global counts at the
// start of the sweep whose pass boundary rebuilt the tables. A copy taken
// from the wrong counts (after the merge, say) fails here;
// TestMHKernelMatchesExactConditional builds only once.
func TestMHRetainedCountsMatchTables(t *testing.T) {
	docs := goldenCorpus()
	cfg := Config{K: 12, Iters: 14, Seed: 906, Sampler: SamplerMH, AliasRefresh: 3, Background: true, P: 2}
	f, err := newFit("lda", tokenDocs(docs), goldenV, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kernel := f.mhTokenKernel(docs)
	prop, kt := f.mh, f.kTotal
	source := append([]int(nil), f.nKV...) // the initial build's input
	for sweep := 1; sweep <= cfg.Iters; sweep++ {
		if f.mh.stale >= f.mh.refresh {
			source = append(source[:0], f.nKV...)
		}
		if err := f.sweep(sweep, kernel); err != nil {
			t.Fatal(err)
		}
		tabs, src := &prop.tab, prop.src
		for w := 0; w < goldenV; w++ {
			row := src[w*kt : (w+1)*kt]
			mass := 0.0
			for k, c := range row {
				if c != source[w*kt+k] {
					t.Fatalf("sweep %d word %d topic %d: retained count %d, build input %d", sweep, w, k, c, source[w*kt+k])
				}
				if got, want := prop.density(w, k), float64(c)+f.cfg.Beta; got != want {
					t.Fatalf("sweep %d word %d topic %d: density %v, want %v", sweep, w, k, got, want)
				}
				mass += float64(c)
			}
			if tabs.Mass[w] != mass {
				t.Fatalf("sweep %d word %d: table mass %v, retained row sums to %v", sweep, w, tabs.Mass[w], mass)
			}
		}
	}
	if f.mh.Rebuilds != 1+(cfg.Iters-1)/cfg.AliasRefresh {
		t.Fatalf("Rebuilds = %d, want %d", f.mh.Rebuilds, 1+(cfg.Iters-1)/cfg.AliasRefresh)
	}
}

// --- SamplerAuto resolution ---

func TestSamplerResolveFor(t *testing.T) {
	cases := []struct {
		s         Sampler
		kTotal, v int
		want      Sampler
	}{
		{SamplerAuto, 2, 10, SamplerDense},     // tiny workload: dense wins
		{SamplerAuto, 200, 10, SamplerDense},   // vocab below threshold
		{SamplerAuto, 2, 100000, SamplerDense}, // topics below threshold
		{SamplerAuto, 32, 64, SamplerMH},       // at both thresholds: MH
		{SamplerAuto, 200, 1000, SamplerMH},
		{SamplerDense, 200, 1000, SamplerDense}, // explicit choice wins
		{SamplerMH, 2, 10, SamplerMH},
	}
	for _, tc := range cases {
		if got := tc.s.ResolveFor(tc.kTotal, tc.v); got != tc.want {
			t.Fatalf("Sampler(%q).ResolveFor(%d, %d) = %q, want %q", tc.s, tc.kTotal, tc.v, got, tc.want)
		}
	}
}

// TestSamplerAutoRecordedOnModel pins the integration: a fit run under
// SamplerAuto records the core it resolved to on Model.Sampler, on both
// sides of the workload threshold.
func TestSamplerAutoRecordedOnModel(t *testing.T) {
	small := Must(Run([][]int{{0, 1, 2}, {2, 1, 0}}, 3, Config{K: 2, Iters: 2, Seed: 1}))
	if small.Sampler != SamplerDense || small.AliasRebuilds != 0 {
		t.Fatalf("small auto fit: Sampler=%q AliasRebuilds=%d, want dense/0", small.Sampler, small.AliasRebuilds)
	}
	docs := bigSynthCorpus(64, 81)
	big := Must(Run(docs, 10, Config{K: 40, Iters: 3, Seed: 82}))
	if v := 10; 40 >= autoMinTopics && v < autoMinVocab {
		// bigSynthCorpus vocab is 10 < autoMinVocab: still dense.
		if big.Sampler != SamplerDense {
			t.Fatalf("v=%d auto fit resolved to %q, want dense", v, big.Sampler)
		}
	}
	wide := make([][]int, 48)
	rng := rand.New(rand.NewSource(83))
	for d := range wide {
		doc := make([]int, 40)
		for i := range doc {
			doc[i] = rng.Intn(200)
		}
		wide[d] = doc
	}
	m := Must(Run(wide, 200, Config{K: 40, Iters: 3, Seed: 84}))
	if m.Sampler != SamplerMH || m.AliasRebuilds != 1 {
		t.Fatalf("wide auto fit: Sampler=%q AliasRebuilds=%d, want mh/1", m.Sampler, m.AliasRebuilds)
	}
}

// --- validation regressions for the new knobs ---

func TestConfigValidatesAliasRefresh(t *testing.T) {
	docs := [][]int{{0, 1}, {1, 0}}
	if m, err := Run(docs, 2, Config{K: 2, Iters: 1, AliasRefresh: -1}); err == nil || m != nil || !strings.Contains(err.Error(), "AliasRefresh") {
		t.Fatalf("negative AliasRefresh: model=%v err=%v, want validation error", m, err)
	}
	if _, err := RunPhrases([]PhraseDoc{{{0}, {1}}}, 2, Config{K: 2, Iters: 1, AliasRefresh: -1}); err == nil || !strings.Contains(err.Error(), "AliasRefresh") {
		t.Fatalf("RunPhrases negative AliasRefresh: err=%v, want validation error", err)
	}
	// "mh" is a valid sampler everywhere a sampler is named.
	if _, err := Run(docs, 2, Config{K: 2, Iters: 1, Sampler: "mh"}); err != nil {
		t.Fatalf("Sampler mh rejected: %v", err)
	}
	// Unknown names still fail, and the error names both cores.
	_, err := Run(docs, 2, Config{K: 2, Iters: 1, Sampler: "turbo"})
	if err == nil {
		t.Fatal("unknown sampler accepted")
	}
	for _, want := range []string{"dense", "mh"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-sampler error %q does not mention %q", err, want)
		}
	}
}

// TestRemovedSparseSamplerRejected: the retired "sparse" core is a
// validation error on every entry point that takes a sampler name, and
// the one message says it was removed and points at mh.
func TestRemovedSparseSamplerRejected(t *testing.T) {
	const sparse = Sampler("sparse")
	check := func(where string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: sparse sampler accepted", where)
		}
		for _, want := range []string{"removed", `"mh"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %s", where, err, want)
			}
		}
	}
	check("Validate", sparse.Validate())
	_, err := Run([][]int{{0, 1}}, 2, Config{K: 2, Iters: 1, Sampler: sparse})
	check("Run", err)
	_, err = RunPhrases([]PhraseDoc{{{0}, {1}}}, 2, Config{K: 2, Iters: 1, Sampler: sparse})
	check("RunPhrases", err)
	for _, ok := range []Sampler{SamplerAuto, SamplerDense, SamplerMH} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("Validate(%q) = %v, want nil", ok, err)
		}
	}
}

// TestSamplerResolveForBoundary walks the auto-resolution thresholds cell
// by cell: the MH core requires BOTH kTotal >= autoMinTopics (32) AND
// v >= autoMinVocab (64); one dimension short of either threshold stays
// dense no matter how large the other grows.
func TestSamplerResolveForBoundary(t *testing.T) {
	cases := []struct {
		kTotal, v int
		want      Sampler
	}{
		{31, 63, SamplerDense},     // both one short
		{31, 64, SamplerDense},     // topics one short, vocab at threshold
		{32, 63, SamplerDense},     // vocab one short, topics at threshold
		{32, 64, SamplerMH},        // exactly at both thresholds
		{33, 64, SamplerMH},        // just past topics threshold
		{32, 65, SamplerMH},        // just past vocab threshold
		{31, 100000, SamplerDense}, // huge vocab cannot compensate topics
		{100000, 63, SamplerDense}, // huge K cannot compensate vocab
		{0, 0, SamplerDense},       // degenerate workload
	}
	for _, tc := range cases {
		if got := SamplerAuto.ResolveFor(tc.kTotal, tc.v); got != tc.want {
			t.Errorf("ResolveFor(%d, %d) = %q, want %q", tc.kTotal, tc.v, got, tc.want)
		}
	}
	// The thresholds the table above encodes are the exported contract of
	// the constants; if someone retunes them, this test must be retuned
	// consciously too.
	if autoMinTopics != 32 || autoMinVocab != 64 {
		t.Fatalf("auto thresholds moved (topics=%d vocab=%d): retune TestSamplerResolveForBoundary",
			autoMinTopics, autoMinVocab)
	}
}

// --- dense vs MH quality ---

// heldOutPerplexity evaluates a fitted model on unseen documents: theta
// comes from fold-in at a fixed seed, the likelihood from the model's
// smoothed topic-word distributions.
func heldOutPerplexity(t *testing.T, m *Model, held [][]int) float64 {
	t.Helper()
	fm := FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
	theta, err := FoldIn(fm, held, FoldInConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ll, n := 0.0, 0
	for di, doc := range held {
		for _, w := range doc {
			p := 0.0
			for k := range fm.PhiLike {
				p += theta[di][k] * fm.PhiLike[k][w]
			}
			ll += math.Log(p)
			n++
		}
	}
	return math.Exp(-ll / float64(n))
}

// TestMHDensePerplexityParity is the acceptance gate for the MH core: on a
// fixed-seed synthetic corpus with topic structure plus shared noise, its
// held-out perplexity must land within 2% of the dense-fit model's. (The
// trajectories differ; their stationary quality must not — this also
// exercises the stale-table acceptance correction over a full fit at the
// default AliasRefresh.)
func TestMHDensePerplexityParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(n int) [][]int {
		docs := make([][]int, n)
		for d := range docs {
			top := rng.Intn(4)
			doc := make([]int, 48)
			for i := range doc {
				if rng.Float64() < 0.2 {
					doc[i] = 40 + rng.Intn(20) // shared noise block
				} else {
					doc[i] = top*10 + rng.Intn(10)
				}
			}
			docs[d] = doc
		}
		return docs
	}
	train, held := mk(400), mk(64)
	dense := Must(Run(train, 60, Config{K: 8, Iters: 100, Seed: 7, Sampler: SamplerDense}))
	pd := heldOutPerplexity(t, dense, held)
	m := Must(Run(train, 60, Config{K: 8, Iters: 100, Seed: 7, Sampler: SamplerMH}))
	pm := heldOutPerplexity(t, m, held)
	if rel := math.Abs(pm-pd) / pd; rel > 0.02 {
		t.Fatalf("mh ppl %.4f vs dense ppl %.4f: relative gap %.4f > 0.02", pm, pd, rel)
	}
}

// TestDenseSamplerStillAvailable pins the A/B pair: the explicitly
// requested dense core is deterministic across P, and it follows a
// trajectory distinct from the MH core's on the same workload.
func TestDenseSamplerStillAvailable(t *testing.T) {
	docs := bigSynthCorpus(96, 65)
	a := Must(Run(docs, 10, Config{K: 2, Iters: 10, Seed: 66, Sampler: SamplerDense, P: 1}))
	b := Must(Run(docs, 10, Config{K: 2, Iters: 10, Seed: 66, Sampler: SamplerDense, P: 8}))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dense sampler no longer deterministic across P")
	}
	if a.Sampler != SamplerDense || a.AliasRebuilds != 0 {
		t.Fatalf("dense fit recorded Sampler=%q AliasRebuilds=%d", a.Sampler, a.AliasRebuilds)
	}
	m := Must(Run(docs, 10, Config{K: 2, Iters: 10, Seed: 66, Sampler: SamplerMH}))
	if m.Sampler != SamplerMH || m.AliasRebuilds == 0 {
		t.Fatalf("mh fit recorded Sampler=%q AliasRebuilds=%d", m.Sampler, m.AliasRebuilds)
	}
	if reflect.DeepEqual(a.Z, m.Z) {
		t.Fatal("dense and MH trajectories are identical; expected distinct deterministic trajectories")
	}
}
