package cathy

import (
	"context"
	"math"
	"math/rand"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/obs"
	"lesm/internal/par"
)

// WeightMode selects how link-type weights alpha_{x,y} are set
// (Section 3.3.1's three CATHYHIN variants).
type WeightMode int

const (
	// EqualWeights uses alpha = 1 for every link type (the basic model).
	EqualWeights WeightMode = iota
	// NormWeights sets alpha_{x,y} = 1 / M_{x,y}, forcing equal total weight
	// per link type (the heuristic baseline).
	NormWeights
	// LearnWeights learns alpha by the closed-form update of Eq. 3.37.
	LearnWeights
)

// Options configure hierarchy construction.
type Options struct {
	// K fixes the number of children per topic; 0 selects k per topic by BIC
	// over [2, MaxK] (Section 3.2.3).
	K int
	// MaxK bounds BIC model selection (default 8, the paper's "small
	// number ... such as 10").
	MaxK int
	// Levels is the number of levels to grow below the root (default 2).
	Levels int
	// EMIters is the EM iteration budget per restart (default 60).
	EMIters int
	// Restarts is the number of random EM restarts; the best-likelihood
	// solution wins (default 2).
	Restarts int
	// Seed drives all randomness.
	Seed int64
	// Weights selects the link-type weighting variant.
	Weights WeightMode
	// Background enables the background topic of Section 3.2.1 (on for
	// CATHYHIN; CATHY's text-only model of Section 3.1 runs without it).
	Background bool
	// MinLinkWeight is the threshold for keeping a link in a child
	// subnetwork (default 1, per "we remove links whose weight is less
	// than 1").
	MinLinkWeight float64
	// MinNetworkWeight stops recursion when a topic's network is smaller
	// than this total weight (default 50).
	MinNetworkWeight float64
	// P is the worker count for the parallel E-step (0 = GOMAXPROCS).
	// Results are bit-identical at any P.
	P int
	// Ctx cancels construction between EM sweeps (nil = background).
	Ctx context.Context
	// Rec, when non-nil, receives one obs.SweepStats per EM sweep
	// (Engine "cathy", Label "<path> k=<k> r<restart>") plus pool
	// telemetry. LogLikelihood is NaN on every sweep but the last of each
	// run, which carries the value restart selection and BIC compare.
	// Observational only: the fitted hierarchy is bit-identical with or
	// without it.
	Rec obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = 8
	}
	if o.Levels == 0 {
		o.Levels = 2
	}
	if o.EMIters == 0 {
		o.EMIters = 60
	}
	if o.Restarts == 0 {
		o.Restarts = 2
	}
	if o.MinLinkWeight == 0 {
		o.MinLinkWeight = 1
	}
	if o.MinNetworkWeight == 0 {
		o.MinNetworkWeight = 50
	}
	return o
}

// Result is a constructed hierarchy plus per-topic artifacts: the subnetwork
// each topic owns and the learned link-type weights used to split it.
type Result struct {
	Hierarchy *core.Hierarchy
	// Networks maps topic path -> the network clustered at that topic (the
	// root's entry is the input network).
	Networks map[string]*hin.Network
	// Alphas maps topic path -> learned link-type weights used when
	// splitting that topic (nil when the topic was not split).
	Alphas map[string]map[hin.TypePair]float64
	// ChosenK maps topic path -> the number of children selected.
	ChosenK map[string]int
}

// Build constructs a topical hierarchy from an edge-weighted network in the
// top-down recursive manner of Sections 3.1-3.2. It returns the context's
// error if opt.Ctx is cancelled mid-build.
func Build(net *hin.Network, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	o := par.Opts{P: opt.P, Ctx: opt.Ctx}
	if opt.Rec != nil {
		o.Obs = opt.Rec
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	h := core.NewHierarchy()
	h.TypeNames = map[core.TypeID]string{}
	for x, name := range net.TypeNames {
		h.TypeNames[core.TypeID(x)] = name
	}
	res := &Result{
		Hierarchy: h,
		Networks:  map[string]*hin.Network{"o": net},
		Alphas:    map[string]map[hin.TypePair]float64{},
		ChosenK:   map[string]int{},
	}
	// The root's phi is the normalized weighted degree per type.
	for x := 0; x < net.NumTypes(); x++ {
		h.Root.Phi[core.TypeID(x)] = degreeDistribution(net, core.TypeID(x))
	}
	var grow func(t *core.TopicNode, g *hin.Network, level int) error
	grow = func(t *core.TopicNode, g *hin.Network, level int) error {
		if level >= opt.Levels || g.TotalWeight() < opt.MinNetworkWeight {
			return nil
		}
		k := opt.K
		if k == 0 {
			var err error
			k, err = selectK(g, t, opt, rng, o)
			if err != nil {
				return err
			}
		}
		if k < 2 {
			return nil
		}
		res.ChosenK[t.Path] = k
		em, err := runBest(g, t, k, opt, rng, o)
		if err != nil {
			return err
		}
		res.Alphas[t.Path] = em.alpha
		subs := em.childNetworks(opt.MinLinkWeight)
		for z := 0; z < k; z++ {
			c := t.AddChild()
			c.Rho = em.rho[z+1] // rho[0] is background
			for x := 0; x < g.NumTypes(); x++ {
				c.Phi[core.TypeID(x)] = em.column(z+1, x)
			}
			res.Networks[c.Path] = subs[z]
		}
		for z, c := range t.Children {
			if err := grow(c, subs[z], level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := grow(h.Root, net, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// degreeDistribution returns the normalized weighted degree of type-x nodes.
// Pairs iterate in sorted order so the fractional-weight sums of child
// networks are bit-reproducible run to run.
func degreeDistribution(g *hin.Network, x core.TypeID) []float64 {
	d := make([]float64, g.NumNodes[x])
	for _, p := range g.SortedPairs() {
		for _, l := range g.Links[p] {
			if p.X == x {
				d[l.I] += l.W
			}
			if p.Y == x {
				d[l.J] += l.W
			}
		}
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	if s > 0 {
		for i := range d {
			d[i] /= s
		}
	}
	return d
}

// selectK chooses the child count by minimizing BIC (Section 3.2.3):
// BIC = -2 log L + |V^t| k log |E^t|, scanning k in [2, MaxK].
func selectK(g *hin.Network, t *core.TopicNode, opt Options, rng *rand.Rand, o par.Opts) (int, error) {
	nLinks := g.TotalLinks()
	if nLinks == 0 {
		return 0, nil
	}
	activeNodes := 0
	for x := 0; x < g.NumTypes(); x++ {
		for _, d := range degreeDistribution(g, core.TypeID(x)) {
			if d > 0 {
				activeNodes++
			}
		}
	}
	bestK, bestBIC := 0, math.Inf(1)
	short := opt
	short.Restarts = 1
	short.EMIters = opt.EMIters / 2
	if short.EMIters < 10 {
		short.EMIters = 10
	}
	for k := 2; k <= opt.MaxK; k++ {
		em, err := runBest(g, t, k, short, rng, o)
		if err != nil {
			return 0, err
		}
		bic := -2*em.logL + float64(activeNodes*k)*math.Log(float64(nLinks))
		if bic < bestBIC {
			bestBIC = bic
			bestK = k
		}
	}
	return bestK, nil
}
