package cathy

import (
	"math"
	"math/rand"
	"testing"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/par"
)

// TestScaleInvarianceLemma31 verifies Lemma 3.1: multiplying every link
// weight by a constant c leaves the EM solution (q, rho, phi) unchanged for
// the topic and all descendants. The EM must be started from the same
// random initialization, which the shared seed guarantees.
func TestScaleInvarianceLemma31(t *testing.T) {
	base := blockNetwork(2)
	for _, c := range []float64{0.5, 3, 17} {
		scaled := hin.NewNetwork(base.TypeNames, base.NumNodes)
		for p, ls := range base.Links {
			out := make([]hin.Link, len(ls))
			for i, l := range ls {
				out[i] = hin.Link{I: l.I, J: l.J, W: l.W * c}
			}
			scaled.Links[p] = out
		}
		opt := Options{K: 2, EMIters: 50, Restarts: 1, Levels: 1}.withDefaults()
		root1 := core.NewHierarchy().Root
		root2 := core.NewHierarchy().Root
		st1, _ := runBest(base, root1, 2, opt, rand.New(rand.NewSource(99)), par.Opts{})
		st2, _ := runBest(scaled, root2, 2, opt, rand.New(rand.NewSource(99)), par.Opts{})
		for z := 1; z <= 2; z++ {
			if math.Abs(st1.rho[z]-st2.rho[z]) > 1e-9 {
				t.Fatalf("c=%v: rho[%d] %v != %v", c, z, st1.rho[z], st2.rho[z])
			}
			phi1, phi2 := st1.column(z, 0), st2.column(z, 0)
			for i := range phi1 {
				if math.Abs(phi1[i]-phi2[i]) > 1e-9 {
					t.Fatalf("c=%v: phi[%d][%d] %v != %v", c, z, i, phi1[i], phi2[i])
				}
			}
		}
	}
}

// TestSubnetworkWeightsScaleWithInput confirms the companion fact: child
// network weights scale linearly with the input scaling (the expected link
// attribution eˆ is c times larger), which is why Theorem 3.2 can trade
// alpha scalings for weight scalings.
func TestSubnetworkWeightsScaleWithInput(t *testing.T) {
	base := blockNetwork(2)
	scaled := hin.NewNetwork(base.TypeNames, base.NumNodes)
	for p, ls := range base.Links {
		out := make([]hin.Link, len(ls))
		for i, l := range ls {
			out[i] = hin.Link{I: l.I, J: l.J, W: l.W * 4}
		}
		scaled.Links[p] = out
	}
	opt := Options{K: 2, EMIters: 50, Restarts: 1, Levels: 1}.withDefaults()
	st1, _ := runBest(base, core.NewHierarchy().Root, 2, opt, rand.New(rand.NewSource(7)), par.Opts{})
	st2, _ := runBest(scaled, core.NewHierarchy().Root, 2, opt, rand.New(rand.NewSource(7)), par.Opts{})
	w1 := 0.0
	for _, sub := range st1.childNetworks(0) {
		w1 += sub.TotalWeight()
	}
	w2 := 0.0
	for _, sub := range st2.childNetworks(0) {
		w2 += sub.TotalWeight()
	}
	if math.Abs(w2-4*w1) > 1e-6*w2 {
		t.Fatalf("child weights %v not 4x %v", w2, w1)
	}
}
