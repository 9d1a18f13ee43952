package cathy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/par"
)

// kernelTestNetwork is a random three-type network with every kind of link
// the E pass tells apart: cross-type and same-type pairs, self-loops
// (x == y, I == J), and one type-0/type-1 link between the last node of
// each type, which has no other link. The caller zeroes those two nodes'
// phi rows, so the link's total is 0 in both directions and the
// degenerate branch runs.
func kernelTestNetwork() *hin.Network {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{30, 20, 12}
	net := hin.NewNetwork([]string{"term", "author", "venue"}, sizes)
	for _, p := range []hin.TypePair{hin.Pair(0, 0), hin.Pair(0, 1), hin.Pair(0, 2), hin.Pair(1, 1), hin.Pair(1, 2)} {
		nx, ny := sizes[p.X], sizes[p.Y]
		for i := 0; i < nx-1; i++ {
			for j := 0; j < ny-1; j++ {
				if p.X == p.Y && j < i {
					continue
				}
				if rng.Float64() < 0.3 || (p.X == p.Y && i == j && i%3 == 0) {
					net.Links[p] = append(net.Links[p], hin.Link{I: i, J: j, W: 0.5 + 3*rng.Float64()})
				}
			}
		}
	}
	p := hin.Pair(0, 1)
	net.Links[p] = append(net.Links[p], hin.Link{I: sizes[0] - 1, J: sizes[1] - 1, W: 2})
	return net
}

// TestKernelsMatchGenericLoop runs whole EM runs (non-final sweeps, alpha
// updates and the final pass) through the dispatcher and through the
// generic loop alone, for every k with a register kernel, background on
// and off, and equal and learned weights. Phi, rho, the log-likelihood,
// the child weights and alpha must agree bit for bit, at P=1 and P=2.
func TestKernelsMatchGenericLoop(t *testing.T) {
	net := kernelTestNetwork()
	selfLoops := 0
	for p, links := range net.Links {
		for _, l := range links {
			if p.X == p.Y && l.I == l.J {
				selfLoops++
			}
		}
	}
	if selfLoops == 0 {
		t.Fatal("test network has no self-loops")
	}
	root := core.NewHierarchy().Root
	for _, k := range []int{2, 3, 4} {
		for _, bg := range []bool{true, false} {
			for _, mode := range []WeightMode{EqualWeights, LearnWeights} {
				opt := Options{K: k, EMIters: 12, Restarts: 1, Levels: 1,
					Background: bg, Weights: mode}.withDefaults()
				run := func(t *testing.T, p int, generic bool) *emState {
					st := newEMState(net, root, k, opt, rand.New(rand.NewSource(int64(70+k))))
					st.genericOnly = generic
					want := k
					if generic {
						want = 0
					}
					if got := st.kernel(false); got != want {
						t.Fatalf("non-final pass runs kernel %d, want %d", got, want)
					}
					nz := k + 1
					for x := 0; x < 2; x++ {
						last := net.NumNodes[x] - 1
						clear(st.phi.byType[x][last*nz : last*nz+nz])
					}
					if err := st.run(opt, par.Opts{P: p}, ""); err != nil {
						t.Fatal(err)
					}
					return st
				}
				for _, p := range []int{1, 2} {
					t.Run(fmt.Sprintf("K=%d/background=%v/mode=%d/P=%d", k, bg, mode, p), func(t *testing.T) {
						want, got := run(t, 1, true), run(t, p, false)
						sameBits(t, "phi", got.phi.flat, want.phi.flat)
						sameBits(t, "rho", got.rho, want.rho)
						sameBits(t, "logL", []float64{got.logL}, []float64{want.logL})
						sameBits(t, "childW", got.childW, want.childW)
						for pair, a := range want.alpha {
							sameBits(t, fmt.Sprintf("alpha%v", pair), []float64{got.alpha[pair]}, []float64{a})
						}
					})
				}
			}
		}
	}
}

// sameBits fails t unless got and want hold the same float64 bits.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}
