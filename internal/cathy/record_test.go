package cathy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lesm/internal/core"
	"lesm/internal/obs"
	"lesm/internal/par"
	"lesm/internal/synth"
)

// sweepLog is a Recorder that keeps every sweep record.
type sweepLog struct {
	mu     sync.Mutex
	sweeps []obs.SweepStats
}

func (r *sweepLog) RecordSweep(s obs.SweepStats) {
	r.mu.Lock()
	r.sweeps = append(r.sweeps, s)
	r.mu.Unlock()
}

func (r *sweepLog) RecordPool(obs.PoolStats) {}

// checkRunRecords asserts the per-run Recorder contract on one label's
// records: EMIters+1 sweeps in order, and only the last (the final pass)
// carries a log-likelihood.
func checkRunRecords(t *testing.T, label string, ss []obs.SweepStats, emIters int) {
	t.Helper()
	if len(ss) != emIters+1 {
		t.Fatalf("%s: %d records, want %d", label, len(ss), emIters+1)
	}
	for i, s := range ss {
		if s.Sweep != i+1 || s.Sweeps != emIters+1 {
			t.Fatalf("%s: record %d is sweep %d/%d", label, i, s.Sweep, s.Sweeps)
		}
		last := i == len(ss)-1
		if finite := !math.IsNaN(s.LogLikelihood) && !math.IsInf(s.LogLikelihood, 0); finite != last {
			t.Fatalf("%s: sweep %d log-likelihood %v (final sweep is %d)", label, s.Sweep, s.LogLikelihood, len(ss))
		}
	}
}

// TestRecorderFinalSweepLogLikelihood: a recorded EM run emits one record
// per sweep, and the final record carries exactly the log-likelihood that
// restart selection and BIC compare.
func TestRecorderFinalSweepLogLikelihood(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 400, NumAuthors: 100, Seed: 33})
	net := ds.CollapsedNetwork(0)
	rec := &sweepLog{}
	opt := Options{K: 3, EMIters: 12, Restarts: 1, Levels: 1, Background: true,
		Weights: LearnWeights, Rec: rec}.withDefaults()
	st := newEMState(net, core.NewHierarchy().Root, 3, opt, rand.New(rand.NewSource(5)))
	if err := st.run(opt, par.Opts{}, "o k=3 r0"); err != nil {
		t.Fatal(err)
	}
	checkRunRecords(t, "o k=3 r0", rec.sweeps, opt.EMIters)
	if got := rec.sweeps[len(rec.sweeps)-1].LogLikelihood; math.Float64bits(got) != math.Float64bits(st.logL) {
		t.Fatalf("final record log-likelihood %v, state %v", got, st.logL)
	}
}

// TestRecorderLeavesHierarchyBitIdentical: recording is observational at
// any P, and every (node, k, restart) label gets a full run of records.
func TestRecorderLeavesHierarchyBitIdentical(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 600, NumAuthors: 150, Seed: 34})
	net := ds.CollapsedNetwork(0)
	base := Options{K: 3, Levels: 2, EMIters: 15, Restarts: 2, Seed: 35,
		Background: true, Weights: LearnWeights}
	plain, err := Build(net, base)
	if err != nil {
		t.Fatal(err)
	}
	want := hierarchyDigest(plain)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rec := &sweepLog{}
			opt := base
			opt.P, opt.Rec = p, rec
			res, err := Build(net, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := hierarchyDigest(res); got != want {
				t.Fatalf("recorded hierarchy digest %s, unrecorded %s", got, want)
			}
			byLabel := map[string][]obs.SweepStats{}
			var labels []string
			for _, s := range rec.sweeps {
				if s.Engine != "cathy" {
					t.Fatalf("engine %q", s.Engine)
				}
				if byLabel[s.Label] == nil {
					labels = append(labels, s.Label)
				}
				byLabel[s.Label] = append(byLabel[s.Label], s)
			}
			// The root and each of its three children split, two restarts each.
			if len(labels) != 8 {
				t.Fatalf("%d labels, want 8: %v", len(labels), labels)
			}
			for _, l := range labels {
				checkRunRecords(t, l, byLabel[l], base.EMIters)
			}
		})
	}
}
