package cathy

import (
	"math"
	"math/rand"
	"testing"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/par"
	"lesm/internal/synth"
)

// blockNetwork builds a two-community homogeneous network: nodes 0..4
// densely linked, nodes 5..9 densely linked, with weak cross links.
func blockNetwork(cross float64) *hin.Network {
	n := hin.NewNetwork([]string{"term"}, []int{10})
	p := hin.Pair(0, 0)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			n.Links[p] = append(n.Links[p], hin.Link{I: i, J: j, W: 10})
			n.Links[p] = append(n.Links[p], hin.Link{I: i + 5, J: j + 5, W: 10})
		}
	}
	if cross > 0 {
		n.Links[p] = append(n.Links[p], hin.Link{I: 0, J: 5, W: cross})
	}
	n.SortLinks()
	return n
}

func TestEMSeparatesBlocks(t *testing.T) {
	net := blockNetwork(1)
	opt := Options{K: 2, EMIters: 80, Restarts: 3, Levels: 1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	root := core.NewHierarchy().Root
	st, err := runBest(net, root, 2, opt, rng, par.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Each topic's phi should concentrate on one block.
	mass := func(z, lo int) float64 {
		s := 0.0
		for _, v := range st.column(z, 0)[lo : lo+5] {
			s += v
		}
		return s
	}
	ok := (mass(1, 0) > 0.9 && mass(2, 5) > 0.9) || (mass(1, 5) > 0.9 && mass(2, 0) > 0.9)
	if !ok {
		t.Fatalf("blocks not separated: %v %v %v %v", mass(1, 0), mass(1, 5), mass(2, 0), mass(2, 5))
	}
	// rho should split roughly evenly.
	if math.Abs(st.rho[1]-st.rho[2]) > 0.2 {
		t.Fatalf("rho unbalanced: %v", st.rho)
	}
}

// TestEMLikelihoodNonDecreasing pins EM monotonicity on the likelihood the
// final pass computes (the value restart selection and BIC read). A final
// sweep runs the same M-step as an ordinary one, so the state is stepped
// with final sweeps throughout while a twin stepped with ordinary sweeps
// must stay bit-identical to it and report no likelihood.
func TestEMLikelihoodNonDecreasing(t *testing.T) {
	net := blockNetwork(2)
	for _, bg := range []bool{false, true} {
		opt := Options{K: 2, Levels: 1, Background: bg}.withDefaults()
		root := core.NewHierarchy().Root
		st := newEMState(net, root, 2, opt, rand.New(rand.NewSource(2)))
		twin := newEMState(net, root, 2, opt, rand.New(rand.NewSource(2)))
		prev := math.Inf(-1)
		for it := 0; it < 30; it++ {
			if err := st.sweep(true, par.Opts{}); err != nil {
				t.Fatal(err)
			}
			if err := twin.sweep(false, par.Opts{}); err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(st.logL) || math.IsInf(st.logL, 0) {
				t.Fatalf("bg=%v iter %d: final-pass log-likelihood %v", bg, it, st.logL)
			}
			if !math.IsNaN(twin.logL) {
				t.Fatalf("bg=%v iter %d: ordinary sweep computed log-likelihood %v", bg, it, twin.logL)
			}
			if st.logL < prev-1e-6 {
				t.Fatalf("bg=%v: log-likelihood decreased at iter %d: %v -> %v", bg, it, prev, st.logL)
			}
			prev = st.logL
			for z := range st.rho {
				if st.rho[z] != twin.rho[z] {
					t.Fatalf("bg=%v iter %d: rho[%d] %v != %v", bg, it, z, st.rho[z], twin.rho[z])
				}
			}
			for i := range st.phi.flat {
				if st.phi.flat[i] != twin.phi.flat[i] {
					t.Fatalf("bg=%v iter %d: phi differs at %d", bg, it, i)
				}
			}
		}
	}
}

func TestPhiAndRhoNormalized(t *testing.T) {
	net := blockNetwork(1)
	opt := Options{K: 3, EMIters: 25, Restarts: 1, Levels: 1, Background: true}.withDefaults()
	rng := rand.New(rand.NewSource(3))
	root := core.NewHierarchy().Root
	root.Phi[0] = degreeDistribution(net, 0)
	st, err := runBest(net, root, 3, opt, rng, par.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rhoSum := 0.0
	for _, r := range st.rho {
		rhoSum += r
	}
	if math.Abs(rhoSum-1) > 1e-9 {
		t.Fatalf("rho sums to %v", rhoSum)
	}
	for z := 0; z <= 3; z++ {
		s := 0.0
		for _, v := range st.column(z, 0) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("phi[%d] sums to %v", z, s)
		}
	}
}

func TestChildNetworksPartitionWeight(t *testing.T) {
	net := blockNetwork(1)
	opt := Options{K: 2, EMIters: 40, Restarts: 1, Levels: 1}.withDefaults()
	rng := rand.New(rand.NewSource(4))
	root := core.NewHierarchy().Root
	st, err := runBest(net, root, 2, opt, rng, par.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	subs := st.childNetworks(0) // keep everything to check conservation
	total := 0.0
	for _, s := range subs {
		total += s.TotalWeight()
	}
	// Both directions are accumulated, so child weight ~= 2x parent weight
	// when no background absorbs mass.
	want := 2 * net.TotalWeight()
	if math.Abs(total-want)/want > 1e-6 {
		t.Fatalf("children total %v, want %v", total, want)
	}
	// A child subnetwork must never contain a link absent from the parent.
	parentHas := map[[2]int]bool{}
	for _, l := range net.Links[hin.Pair(0, 0)] {
		parentHas[[2]int{l.I, l.J}] = true
	}
	for _, s := range subs {
		for _, l := range s.Links[hin.Pair(0, 0)] {
			if !parentHas[[2]int{l.I, l.J}] {
				t.Fatalf("child link (%d,%d) not in parent", l.I, l.J)
			}
		}
	}
}

func TestBuildHierarchyOnDBLP(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 600, NumAuthors: 150, Seed: 5})
	net := ds.CollapsedNetwork(0)
	res, err := Build(net, Options{K: 3, Levels: 2, EMIters: 30, Restarts: 1, Seed: 6, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Hierarchy
	if len(h.Root.Children) != 3 {
		t.Fatalf("root children = %d", len(h.Root.Children))
	}
	if h.Root.Height() != 2 {
		t.Fatalf("height = %d", h.Root.Height())
	}
	// Every topic has per-type phi of the right lengths.
	h.Root.Walk(func(n *core.TopicNode) {
		if n.Path == "o" {
			return
		}
		for x := 0; x < 3; x++ {
			if len(n.Phi[core.TypeID(x)]) != net.NumNodes[x] {
				t.Fatalf("topic %s phi[%d] len %d", n.Path, x, len(n.Phi[core.TypeID(x)]))
			}
		}
		if n.Rho < 0 || n.Rho > 1 {
			t.Fatalf("topic %s rho=%v", n.Path, n.Rho)
		}
	})
	// Path notation matches Section 3.1 (o/1, o/1/2, ...).
	if h.Root.Children[0].Path != "o/1" {
		t.Fatalf("path = %q", h.Root.Children[0].Path)
	}
	if len(h.Root.Children[0].Children) > 0 && h.Root.Children[0].Children[1].Path != "o/1/2" {
		t.Fatalf("grandchild path = %q", h.Root.Children[0].Children[1].Path)
	}
}

func TestLearnWeightsFindsInformativeTypes(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 500, NumAuthors: 120, Seed: 7})
	net := ds.CollapsedNetwork(0)
	res, err := Build(net, Options{K: 6, Levels: 1, EMIters: 30, Restarts: 1, Seed: 8,
		Background: true, Weights: LearnWeights})
	if err != nil {
		t.Fatal(err)
	}
	alphas := res.Alphas["o"]
	if len(alphas) == 0 {
		t.Fatal("no learned alphas")
	}
	for p, a := range alphas {
		if a <= 0 || math.IsNaN(a) {
			t.Fatalf("alpha[%v] = %v", p, a)
		}
	}
}

func TestBICSelectsReasonableK(t *testing.T) {
	// A network with two crisp communities should select a small k, and the
	// chosen split must be recorded.
	net := blockNetwork(1)
	res, err := Build(net, Options{Levels: 1, MaxK: 4, EMIters: 30, Restarts: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	k := res.ChosenK["o"]
	if k < 2 || k > 4 {
		t.Fatalf("chosen k = %d", k)
	}
	if len(res.Hierarchy.Root.Children) != k {
		t.Fatalf("children %d != chosen %d", len(res.Hierarchy.Root.Children), k)
	}
}

func TestDegreeDistribution(t *testing.T) {
	net := blockNetwork(0)
	d := degreeDistribution(net, 0)
	s := 0.0
	for _, v := range d {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("degree dist sums to %v", s)
	}
	// All nodes symmetric within blocks.
	if math.Abs(d[0]-d[7]) > 1e-12 {
		t.Fatalf("expected symmetric degrees, got %v vs %v", d[0], d[7])
	}
}
