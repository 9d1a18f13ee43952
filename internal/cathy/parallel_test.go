package cathy

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lesm/internal/core"
	"lesm/internal/par"
	"lesm/internal/synth"
)

// TestEMDeterministicAcrossParallelism is the runtime-layer invariant: the
// chunked E-step reduction must give bit-identical parameters at P=1 and
// P=8 from the same random initialization.
func TestEMDeterministicAcrossParallelism(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 400, NumAuthors: 100, Seed: 31})
	net := ds.CollapsedNetwork(0)
	opt := Options{K: 3, EMIters: 20, Restarts: 1, Levels: 1, Background: true,
		Weights: LearnWeights}.withDefaults()
	run := func(p int) *emState {
		root := core.NewHierarchy().Root
		st, err := runBest(net, root, 3, opt, rand.New(rand.NewSource(77)), par.Opts{P: p})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(1), run(8)
	if a.logL != b.logL {
		t.Fatalf("logL differs: P=1 %v, P=8 %v", a.logL, b.logL)
	}
	for z := range a.rho {
		if a.rho[z] != b.rho[z] {
			t.Fatalf("rho[%d] differs: %v vs %v", z, a.rho[z], b.rho[z])
		}
	}
	for z := range a.rho {
		for x := range a.phi.byType {
			pa, pb := a.column(z, x), b.column(z, x)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("phi[%d][%d][%d] differs: %v vs %v", z, x, i, pa[i], pb[i])
				}
			}
		}
	}
	for p := range a.alpha {
		if a.alpha[p] != b.alpha[p] {
			t.Fatalf("alpha[%v] differs: %v vs %v", p, a.alpha[p], b.alpha[p])
		}
	}
}

func TestBuildCancelledContext(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 400, NumAuthors: 100, Seed: 32})
	net := ds.CollapsedNetwork(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Build(net, Options{K: 3, Levels: 2, Seed: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
