package tng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lesm/internal/synth"
)

// goldenSHA pins the exact bits of TNG fits: assignments, bigram status,
// Phi and Rho. Each row must give the same digest at P=1 and P=2. Any
// change to the sampler's arithmetic, PRNG consumption or merge order
// moves these digests; changes to the machinery around it (chunk state
// layout, delta bookkeeping) must not.
var goldenSHA = map[string]string{
	"plain":    "f3824294e7974771797710bbf4de0d79869fa1e267464b9976724adc082a1f9e",
	"discount": "bedf95476d38353ffccd3fddfacc2450876f7cec1d30f6fe87ad4ee14738cf8f",
}

func modelDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(t [][]int) {
		u64(uint64(len(t)))
		for _, row := range t {
			u64(uint64(len(row)))
			for _, x := range row {
				u64(uint64(x))
			}
		}
	}
	floats := func(xs []float64) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(math.Float64bits(x))
		}
	}
	u64(uint64(m.K))
	ints(m.Z)
	ints(m.X)
	for _, row := range m.Phi {
		floats(row)
	}
	floats(m.Rho)
	return hex.EncodeToString(h.Sum(nil))
}

func TestRunGolden(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 200, Seed: 47})
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	v := ds.Corpus.Vocab.Size()
	cfgs := map[string]Config{
		"plain":    {K: 4, Iters: 15, Seed: 48},
		"discount": {K: 3, Iters: 10, Seed: 49, Discount: 0.5, Gamma: 2},
	}
	for name, cfg := range cfgs {
		for _, p := range []int{1, 2} {
			cfg.P = p
			m, err := Run(docs, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelDigest(m); got != goldenSHA[name] {
				t.Errorf("%s P=%d: digest %s, want %s", name, p, got, goldenSHA[name])
			}
		}
	}
}
