package lda

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// goldenSHA pins the exact bits of every fit and fold-in variant of the
// dense and MH cores. Each row must give the same digest at P=1 and P=2.
// Any change to a core's arithmetic, PRNG consumption or merge order moves
// these digests; refactors of the machinery around the cores must not.
var goldenSHA = map[string]string{
	"run/dense/bg":       "fd41425c3a07d7ce205e4ed18554579e04a5bec6780f62620b1863c295fc0e61",
	"run/mh":             "02b40c40fb0ec092a9f9a4d450e2c997d21337e0484d4c9a054c70e6609b7d1d",
	"phrases/dense":      "081b0efdecc4eee634800b14626ad1dc9e5dcb9d5151c4a4272f82599888902b",
	"phrases/mh/bg":      "3ac62687ea1074ca0032fd5eb7d41da42a62b9d9ecfb460e346b80517bebada5",
	"foldin/dense":       "57712bf2c21ff3ba286f2913032b96c9c1bdd2f9c757675a6799dc3c2ba4476a",
	"foldin/mh":          "0d6429cce150f6f637a62a5a09ebe1f7fa1c0879b24f658ea1b84469cf86caa7",
	"foldin-batch/dense": "7ad2db9f924b2b4f30036bb2ee457277eb87daaece155f564aea661bd792a34d",
	"foldin-batch/mh":    "e7184ac5aa228bf49a4aab97f6d3827a97fe4288b43db651e893ef43a9eb6289",
}

// digest is a SHA-256 over little-endian u64 words.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) ints(xs []int) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

func (d *digest) floats(xs []float64) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d *digest) intTable(t [][]int) {
	d.u64(uint64(len(t)))
	for _, row := range t {
		d.ints(row)
	}
}

func (d *digest) floatTable(t [][]float64) {
	d.u64(uint64(len(t)))
	for _, row := range t {
		d.floats(row)
	}
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// modelDigest hashes a fitted model's assignments, counts and the float
// bits of its distributions, plus the rebuild accounting.
func modelDigest(m *Model) string {
	d := newDigest()
	d.intTable(m.Z)
	d.intTable(m.PhraseZ)
	d.intTable(m.NKV)
	d.ints(m.NK)
	d.floatTable(m.Phi)
	d.floatTable(m.Theta)
	d.u64(uint64(m.AliasRebuilds))
	return d.hex()
}

// goldenCorpus is a 12-block, 300-word corpus with a noise floor: large
// enough for several sampler chunks and for the MH alias tables to carry
// real mass on many words.
func goldenCorpus() [][]int {
	rng := rand.New(rand.NewSource(901))
	docs := make([][]int, 200)
	for d := range docs {
		top := d % 12
		doc := make([]int, 20+rng.Intn(20))
		for i := range doc {
			if rng.Float64() < 0.15 {
				doc[i] = rng.Intn(300)
			} else {
				doc[i] = top*25 + rng.Intn(25)
			}
		}
		docs[d] = doc
	}
	docs[17] = nil // an empty document rides along
	return docs
}

// goldenPhrases segments goldenCorpus into a mix of unigram, bigram and
// trigram phrases, so both MH phrase paths (unigram kernel, multi-word
// product) run.
func goldenPhrases() []PhraseDoc {
	raw := goldenCorpus()
	docs := make([]PhraseDoc, len(raw))
	for di, doc := range raw {
		var pd PhraseDoc
		for i := 0; i < len(doc); {
			n := 1 + (i+di)%3
			if i+n > len(doc) {
				n = len(doc) - i
			}
			pd = append(pd, doc[i:i+n])
			i += n
		}
		docs[di] = pd
	}
	return docs
}

// goldenQueries are fold-in documents: short, on-topic, with unknown ids
// and an empty document mixed in.
func goldenQueries() [][]int {
	rng := rand.New(rand.NewSource(902))
	qs := make([][]int, 40)
	for i := range qs {
		top := rng.Intn(12)
		q := make([]int, 1+rng.Intn(12))
		for j := range q {
			q[j] = top*25 + rng.Intn(25)
		}
		if i%9 == 0 {
			q = append(q, 5000)
		}
		qs[i] = q
	}
	qs[3] = nil
	return qs
}

const goldenV = 300

func goldenConfig(s Sampler, bg bool, p int) Config {
	return Config{K: 12, Iters: 25, Seed: 903, Sampler: s, AliasRefresh: 3, Background: bg, P: p}
}

func goldenFoldInModel(t *testing.T) *FoldInModel {
	t.Helper()
	m, err := Run(goldenCorpus(), goldenV, goldenConfig(SamplerDense, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	return FoldInModelFromCounts(m.NKV, m.NK, DefaultFoldInAlpha, m.Beta)
}

// TestGoldenDigests pins the dense and MH cores bit for bit: token and
// phrase fits (the background topic on for one row each), FoldIn and
// FoldInBatch theta, each at P=1 and P=2.
func TestGoldenDigests(t *testing.T) {
	fm := goldenFoldInModel(t)
	type row struct {
		name string
		run  func(p int) (string, error)
	}
	fit := func(s Sampler, bg bool) func(int) (string, error) {
		return func(p int) (string, error) {
			m, err := Run(goldenCorpus(), goldenV, goldenConfig(s, bg, p))
			if err != nil {
				return "", err
			}
			return modelDigest(m), nil
		}
	}
	fitPhrases := func(s Sampler, bg bool) func(int) (string, error) {
		return func(p int) (string, error) {
			m, err := RunPhrases(goldenPhrases(), goldenV, goldenConfig(s, bg, p))
			if err != nil {
				return "", err
			}
			return modelDigest(m), nil
		}
	}
	foldIn := func(s Sampler) func(int) (string, error) {
		return func(p int) (string, error) {
			theta, err := FoldIn(fm, goldenQueries(), FoldInConfig{Seed: 904, Sweeps: 20, P: p, Sampler: s})
			if err != nil {
				return "", err
			}
			d := newDigest()
			d.floatTable(theta)
			return d.hex(), nil
		}
	}
	foldInBatch := func(s Sampler) func(int) (string, error) {
		return func(p int) (string, error) {
			var batch []BatchDoc
			for i, q := range goldenQueries() {
				batch = append(batch, BatchDoc{Tokens: q, Seed: int64(905 + i%3), Index: uint64(i), Sweeps: 5 + i%4})
			}
			theta, err := FoldInBatch(fm, batch, FoldInConfig{P: p, Sampler: s})
			if err != nil {
				return "", err
			}
			d := newDigest()
			d.floatTable(theta)
			return d.hex(), nil
		}
	}
	rows := []row{
		{"run/dense/bg", fit(SamplerDense, true)},
		{"run/mh", fit(SamplerMH, false)},
		{"phrases/dense", fitPhrases(SamplerDense, false)},
		{"phrases/mh/bg", fitPhrases(SamplerMH, true)},
		{"foldin/dense", foldIn(SamplerDense)},
		{"foldin/mh", foldIn(SamplerMH)},
		{"foldin-batch/dense", foldInBatch(SamplerDense)},
		{"foldin-batch/mh", foldInBatch(SamplerMH)},
	}
	for _, r := range rows {
		for _, p := range []int{1, 2} {
			r, p := r, p
			t.Run(fmt.Sprintf("%s/P=%d", r.name, p), func(t *testing.T) {
				got, err := r.run(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenSHA[r.name]; got != want {
					t.Fatalf("digest %s, want %s", got, want)
				}
			})
		}
	}
}

// goldenCkptSHA pins the checkpoints a fit hands to CheckpointFunc: the
// sweep, the assignments, the rebuild counter, the staleness clock and the
// MH source table, in that order, for every captured boundary. A source
// table written transposed or from the wrong buffer still resumes
// bit-identically inside one binary, so only these digests catch a change
// to what a checkpoint carries.
var goldenCkptSHA = map[string]string{
	"ckpt/run/dense/bg":  "f4335fe8c9778ca12df56670a8106f12ce75b4d28e53a80c291fa1b147d0ea73",
	"ckpt/run/mh":        "d43eabf3529d3f44c8eda66d11de852227615119e6b9e9a38100399b5f537596",
	"ckpt/phrases/mh/bg": "7e0caf0577440956fec014d59fb0ccf6bc9f549c760c2e42c0c627a6b99d867b",
}

// ckptDigest hashes captured checkpoints in sweep order.
func ckptDigest(cps []*Checkpoint) string {
	d := newDigest()
	d.u64(uint64(len(cps)))
	for _, cp := range cps {
		d.u64(uint64(cp.Sweep))
		d.intTable(cp.Z)
		d.u64(uint64(cp.AliasRebuilds))
		d.u64(uint64(cp.MHStale))
		d.intTable(cp.MHSourceKV)
	}
	return d.hex()
}

// TestGoldenCheckpointDigests pins the checkpoint contents of MH token and
// phrase fits and one dense fit at P=1 and P=2. AliasRefresh 3 against
// CheckpointEvery 4 puts the boundaries at every staleness from 1 to 3,
// so every captured source table is older than the captured Z.
func TestGoldenCheckpointDigests(t *testing.T) {
	type row struct {
		name    string
		phrases bool
		s       Sampler
		bg      bool
	}
	rows := []row{
		{"ckpt/run/dense/bg", false, SamplerDense, true},
		{"ckpt/run/mh", false, SamplerMH, false},
		{"ckpt/phrases/mh/bg", true, SamplerMH, true},
	}
	for _, r := range rows {
		for _, p := range []int{1, 2} {
			r, p := r, p
			t.Run(fmt.Sprintf("%s/P=%d", r.name, p), func(t *testing.T) {
				var cps []*Checkpoint
				cfg := goldenConfig(r.s, r.bg, p)
				cfg.CheckpointEvery = 4
				cfg.CheckpointFunc = func(cp *Checkpoint) error {
					cps = append(cps, cp)
					return nil
				}
				var err error
				if r.phrases {
					_, err = RunPhrases(goldenPhrases(), goldenV, cfg)
				} else {
					_, err = Run(goldenCorpus(), goldenV, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(cps) != cfg.Iters/cfg.CheckpointEvery {
					t.Fatalf("captured %d checkpoints, want %d", len(cps), cfg.Iters/cfg.CheckpointEvery)
				}
				if got, want := ckptDigest(cps), goldenCkptSHA[r.name]; got != want {
					t.Fatalf("digest %s, want %s", got, want)
				}
			})
		}
	}
}
