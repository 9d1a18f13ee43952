package cathy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"lesm/internal/core"
	"lesm/internal/synth"
)

// goldenBuilds pins the exact bits of Build on a fixed synthetic DBLP
// network, one digest per case. Any change to the EM kernel's arithmetic or
// summation order (not just its results' quality) moves these digests;
// layout and scheduling changes must not. The cases cover every k the E
// pass specializes (2, 3 and 4), both background settings (off is the
// CATHY path of BuildTextHierarchy) and BIC selection, which runs every
// candidate k in [2, 8] and so the generic loop as well. Every case shares
// Levels 2, EMIters 30, Restarts 2 and Seed 42.
var goldenBuilds = []struct {
	name string
	opt  Options
	sha  string
}{
	{"mode=0", Options{K: 3, Background: true, Weights: EqualWeights},
		"9a21179f15178eaf435371becc4d5ae4d188ac171a0b417bd8ea3423f5a0886c"},
	{"mode=2", Options{K: 3, Background: true, Weights: LearnWeights},
		"b692a70ca43635bcc26bcab3f28da4e17d028077ff4896c649c25d02025b08ea"},
	{"K=2", Options{K: 2, Background: true, Weights: EqualWeights},
		"efef2d2df36b05f5c766aea1f9f50d8a3f0467a1a86467a2ab3480f0f0f142ce"},
	{"K=4", Options{K: 4, Background: true, Weights: LearnWeights},
		"b9ea42151fe1d2a1cfe3cbce28ade0eb92b0337b1567b330517b1c1b976064f7"},
	{"K=3/background=off", Options{K: 3, Weights: EqualWeights},
		"2bde0e8d054232706eb878147804ca7a6adc39f965f1e03e1b0c9cc09fa8a94f"},
	{"K=0", Options{K: 0, Background: true, Weights: LearnWeights},
		"a8f89bf38e410fd435f92977c9f73c700716b1d269877fbf2469b572990b9b84"},
}

// hierarchyDigest hashes the float64 bits of every topic's Rho and Phi (in
// Walk order, per type in type order) and every per-topic network's links
// (sorted pairs, link order).
func hierarchyDigest(res *Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	types := len(res.Hierarchy.TypeNames)
	res.Hierarchy.Root.Walk(func(n *core.TopicNode) {
		h.Write([]byte(n.Path))
		put(math.Float64bits(n.Rho))
		for x := 0; x < types; x++ {
			phi := n.Phi[core.TypeID(x)]
			put(uint64(len(phi)))
			for _, v := range phi {
				put(math.Float64bits(v))
			}
		}
		net := res.Networks[n.Path]
		if net == nil {
			return
		}
		for _, p := range net.SortedPairs() {
			put(uint64(p.X)<<32 | uint64(p.Y))
			for _, l := range net.Links[p] {
				put(uint64(l.I)<<32 | uint64(l.J))
				put(math.Float64bits(l.W))
			}
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins Build's output bit for bit at P=1 and P=2 for every
// case of goldenBuilds.
func TestBuildGolden(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 2000, NumAuthors: 400, Seed: 41})
	net := ds.CollapsedNetwork(0)
	for _, c := range goldenBuilds {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P=%d", c.name, p), func(t *testing.T) {
				opt := c.opt
				opt.Levels, opt.EMIters, opt.Restarts, opt.Seed, opt.P = 2, 30, 2, 42, p
				res, err := Build(net, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := hierarchyDigest(res); got != c.sha {
					t.Fatalf("hierarchy digest %s, want %s", got, c.sha)
				}
			})
		}
	}
}
