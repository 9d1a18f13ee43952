package lda

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// resumeCorpus is synthCorpus plus an empty document, so every resume
// test also exercises the zero-token row parity between the init pass
// and the restore path.
func resumeCorpus(nDocs, docLen int, seed int64) [][]int {
	docs, _ := synthCorpus(nDocs, docLen, seed)
	docs = append(docs, []int{})
	return docs
}

// resumePhraseCorpus builds the two-topic phrase corpus of the phrase
// sampler tests, plus an empty document.
func resumePhraseCorpus(nDocs int, seed int64) []PhraseDoc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]PhraseDoc, 0, nDocs+1)
	for d := 0; d < nDocs; d++ {
		top := d % 2
		var doc PhraseDoc
		for p := 0; p < 6; p++ {
			w1 := top*6 + rng.Intn(3)
			w2 := top*6 + 3 + rng.Intn(3)
			doc = append(doc, []int{w1, w2})
		}
		docs = append(docs, doc)
	}
	return append(docs, PhraseDoc{})
}

// fitOnce runs the token or phrase fit for cfg, capturing every
// checkpoint by sweep.
func fitOnce(t *testing.T, phrase bool, cfg Config, ckpts map[int]*Checkpoint) *Model {
	t.Helper()
	if ckpts != nil {
		cfg.CheckpointFunc = func(cp *Checkpoint) error {
			ckpts[cp.Sweep] = cp
			return nil
		}
	}
	var m *Model
	var err error
	if phrase {
		m, err = RunPhrases(resumePhraseCorpus(40, 9), 12, cfg)
	} else {
		m, err = Run(resumeCorpus(40, 12, 9), 10, cfg)
	}
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return m
}

// TestResumeBitIdentical is the crash-safety contract: a fit killed at a
// sweep boundary and resumed from its checkpoint produces a final model
// bit-identical to the uninterrupted run's — for both sampling cores,
// token and phrase variants, at P=1 and P=8, and across a parallelism
// change between the checkpointing run and the resuming run.
func TestResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		sampler  Sampler
		phrase   bool
		bg       bool
		p, pBack int
	}{
		{"dense/p1", SamplerDense, false, true, 1, 1},
		{"dense/p8", SamplerDense, false, false, 8, 8},
		{"mh/p1", SamplerMH, false, false, 1, 1},
		{"mh/p8", SamplerMH, false, false, 8, 8},
		{"dense/phrase/p8", SamplerDense, true, false, 8, 8},
		{"mh/phrase/p8", SamplerMH, true, true, 8, 8},
		// Checkpoint at one parallelism level, resume at another: P is
		// deliberately outside the fingerprint because the trajectory is
		// P-independent.
		{"dense/cross-p", SamplerDense, false, false, 1, 8},
		{"mh/cross-p", SamplerMH, true, false, 8, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Iters=20 with CheckpointEvery=7 puts the resume point at
			// sweep 14 — deliberately NOT a multiple of AliasRefresh=3, so
			// the MH cases resume with mid-staleness alias tables (the
			// hard case: the alias tables were built from counts three
			// sweeps older than the checkpointed Z).
			cfg := Config{
				K: 2, Iters: 20, Seed: 42, Sampler: tc.sampler,
				AliasRefresh: 3, Background: tc.bg, P: tc.p,
				CheckpointEvery: 7,
			}
			ckpts := map[int]*Checkpoint{}
			want := fitOnce(t, tc.phrase, cfg, ckpts)
			cp := ckpts[14]
			if cp == nil {
				t.Fatalf("no checkpoint at sweep 14 (have %v)", sweepsOf(ckpts))
			}
			if tc.sampler == SamplerMH && cp.MHSourceKV == nil {
				t.Fatal("MH checkpoint missing alias source counts")
			}
			resumeCfg := cfg
			resumeCfg.CheckpointEvery = 0
			resumeCfg.P = tc.pBack
			resumeCfg.Resume = cp
			got := fitOnce(t, tc.phrase, resumeCfg, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatal("resumed model differs from the uninterrupted fit")
			}
		})
	}
}

func sweepsOf(ckpts map[int]*Checkpoint) []int {
	var s []int
	for k := range ckpts {
		s = append(s, k)
	}
	return s
}

// TestStopCheckpointResume: Config.Stop ends the fit at a sweep boundary
// with ErrStopped after a final checkpoint, and resuming that checkpoint
// completes to the exact model the uninterrupted run produces.
func TestStopCheckpointResume(t *testing.T) {
	for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
		sampler := sampler
		t.Run(string(sampler), func(t *testing.T) {
			t.Parallel()
			docs := resumeCorpus(40, 12, 9)
			cfg := Config{K: 2, Iters: 18, Seed: 7, Sampler: sampler, AliasRefresh: 3, P: 4}
			want := Must(Run(docs, 10, cfg))

			// Stop as soon as the cadence checkpoint at sweep 5 exists; the
			// boundary then writes a final checkpoint at sweep 6 and stops.
			var last *Checkpoint
			stopCfg := cfg
			stopCfg.CheckpointEvery = 5
			stopCfg.CheckpointFunc = func(cp *Checkpoint) error { last = cp; return nil }
			stopCfg.Stop = func() bool { return last != nil }
			if _, err := Run(docs, 10, stopCfg); !errors.Is(err, ErrStopped) {
				t.Fatalf("stopped fit returned %v, want ErrStopped", err)
			}
			if last == nil || last.Sweep != 6 {
				t.Fatalf("final checkpoint = %+v, want sweep 6", last)
			}

			resumeCfg := cfg
			resumeCfg.Resume = last
			got := Must(Run(docs, 10, resumeCfg))
			if !reflect.DeepEqual(want, got) {
				t.Fatal("stop+resume model differs from the uninterrupted fit")
			}
		})
	}
}

// TestCheckpointFuncErrorAbortsFit: a failing checkpoint sink (disk
// full, say) fails the fit loudly instead of sampling on with
// crash-safety silently gone.
func TestCheckpointFuncErrorAbortsFit(t *testing.T) {
	boom := errors.New("sink failed")
	_, err := Run(resumeCorpus(10, 8, 3), 10, Config{
		K: 2, Iters: 10, Seed: 1, CheckpointEvery: 2,
		CheckpointFunc: func(*Checkpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

// TestResumeRejectsMismatch: a checkpoint only resumes the exact run it
// came from — configuration or corpus drift is an error, never a
// silently different trajectory.
func TestResumeRejectsMismatch(t *testing.T) {
	docs := resumeCorpus(20, 10, 5)
	cfg := Config{K: 2, Iters: 12, Seed: 6, CheckpointEvery: 4}
	ckpts := map[int]*Checkpoint{}
	cfg.CheckpointFunc = func(cp *Checkpoint) error { ckpts[cp.Sweep] = cp; return nil }
	if _, err := Run(docs, 10, cfg); err != nil {
		t.Fatal(err)
	}
	cp := ckpts[8]
	if cp == nil {
		t.Fatal("no checkpoint at sweep 8")
	}
	try := func(name string, mut func(c *Config, d *[][]int, v *int)) {
		t.Run(name, func(t *testing.T) {
			rcfg := Config{K: 2, Iters: 12, Seed: 6, Resume: cp}
			rdocs := make([][]int, len(docs))
			copy(rdocs, docs)
			v := 10
			mut(&rcfg, &rdocs, &v)
			if _, err := Run(rdocs, v, rcfg); err == nil {
				t.Fatal("mismatched resume accepted")
			}
		})
	}
	try("seed", func(c *Config, _ *[][]int, _ *int) { c.Seed = 7 })
	try("k", func(c *Config, _ *[][]int, _ *int) { c.K = 3 })
	try("iters", func(c *Config, _ *[][]int, _ *int) { c.Iters = 40 })
	try("sampler", func(c *Config, _ *[][]int, _ *int) { c.Sampler = SamplerMH })
	try("background", func(c *Config, _ *[][]int, _ *int) { c.Background = true })
	try("vocab", func(_ *Config, _ *[][]int, v *int) { *v = 11 })
	try("doc-count", func(_ *Config, d *[][]int, _ *int) { *d = (*d)[:len(*d)-1] })
	try("token-edit", func(_ *Config, d *[][]int, _ *int) {
		doc := append([]int(nil), (*d)[0]...)
		doc[0] = (doc[0] + 1) % 10
		(*d)[0] = doc
	})
	// A token checkpoint must not resume a phrase fit even over the same
	// word ids: the segmentation is part of the corpus hash.
	t.Run("engine", func(t *testing.T) {
		pdocs := make([]PhraseDoc, len(docs))
		for i, d := range docs {
			for _, w := range d {
				pdocs[i] = append(pdocs[i], []int{w})
			}
		}
		if _, err := RunPhrases(pdocs, 10, Config{K: 2, Iters: 12, Seed: 6, Resume: cp}); err == nil {
			t.Fatal("token checkpoint accepted by a phrase fit")
		}
	})
}

// TestCheckpointConfigValidation: the checkpoint knobs validate like
// every other Config field.
func TestCheckpointConfigValidation(t *testing.T) {
	docs := resumeCorpus(5, 6, 2)
	if _, err := Run(docs, 10, Config{K: 2, Iters: 5, CheckpointEvery: -1}); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
	if _, err := Run(docs, 10, Config{K: 2, Iters: 5, CheckpointEvery: 3}); err == nil {
		t.Fatal("CheckpointEvery without CheckpointFunc accepted")
	}
}

// TestCheckpointingIsObservational: a fit with checkpointing enabled
// produces the same model as one without — capturing state must not
// perturb the trajectory.
func TestCheckpointingIsObservational(t *testing.T) {
	for _, sampler := range []Sampler{SamplerDense, SamplerMH} {
		t.Run(string(sampler), func(t *testing.T) {
			cfg := Config{K: 2, Iters: 15, Seed: 11, Sampler: sampler, AliasRefresh: 3, P: 4}
			want := fitOnce(t, false, cfg, nil)
			ckCfg := cfg
			ckCfg.CheckpointEvery = 1
			got := fitOnce(t, false, ckCfg, map[int]*Checkpoint{})
			if !reflect.DeepEqual(want, got) {
				t.Fatal("checkpointing changed the fitted model")
			}
		})
	}
}
