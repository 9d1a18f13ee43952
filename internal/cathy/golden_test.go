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

// goldenBuildSHA pins the exact bits of Build on a fixed synthetic DBLP
// network, one digest per weight mode. Any change to the EM kernel's
// arithmetic or summation order (not just its results' quality) moves
// these digests; layout and scheduling changes must not.
var goldenBuildSHA = map[WeightMode]string{
	EqualWeights: "9a21179f15178eaf435371becc4d5ae4d188ac171a0b417bd8ea3423f5a0886c",
	LearnWeights: "b692a70ca43635bcc26bcab3f28da4e17d028077ff4896c649c25d02025b08ea",
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

// TestBuildGolden pins Build's output bit for bit at P=1 and P=2, with the
// background topic on, for equal and learned link-type weights.
func TestBuildGolden(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 2000, NumAuthors: 400, Seed: 41})
	net := ds.CollapsedNetwork(0)
	for _, mode := range []WeightMode{EqualWeights, LearnWeights} {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("mode=%d/P=%d", mode, p), func(t *testing.T) {
				res, err := Build(net, Options{K: 3, Levels: 2, EMIters: 30, Restarts: 2,
					Seed: 42, Background: true, Weights: mode, P: p})
				if err != nil {
					t.Fatal(err)
				}
				if got := hierarchyDigest(res); got != goldenBuildSHA[mode] {
					t.Fatalf("hierarchy digest %s, want %s", got, goldenBuildSHA[mode])
				}
			})
		}
	}
}
