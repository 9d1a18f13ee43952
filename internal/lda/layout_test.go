package lda

import (
	"reflect"
	"testing"
	"unsafe"

	"lesm/internal/par"
)

// TestChunkStateCacheLinePrivate pins the chunk-private layout by address,
// without timing: for fits at small K (where the per-chunk arrays are a few
// dozen bytes and would share a size class), dense and MH, token and
// phrase, no par.CacheGuard-aligned block may hold mutable words of two
// chunks. A shared block means two workers write one cache-line pair and
// P=2 sweeps stall on false sharing.
func TestChunkStateCacheLinePrivate(t *testing.T) {
	tokens, _ := synthCorpus(256, 16, 5)
	for _, tc := range []struct {
		name   string
		c      corpus
		v      int
		engine string
	}{
		{"token", tokenDocs(tokens), 10, "lda"},
		{"phrase", phraseDocs(goldenPhrases()), goldenV, "phraselda"},
	} {
		for _, s := range []Sampler{SamplerDense, SamplerMH} {
			f, err := newFit(tc.engine, tc.c, tc.v, Config{K: 5, Iters: 1, Seed: 1, Background: true, Sampler: s})
			if err != nil {
				t.Fatal(err)
			}
			if len(f.sw.Slots) < 2 {
				t.Fatalf("%s/%s: %d chunks, the check needs at least 2", tc.name, s, len(f.sw.Slots))
			}
			if (f.mh != nil) != (s == SamplerMH) {
				t.Fatalf("%s/%s: MH state attached = %v", tc.name, s, f.mh != nil)
			}
			checkChunkBlocks(t, tc.name+"/"+string(s), f.sw)
		}
	}
}

// checkChunkBlocks records which chunk owns each CacheGuard-aligned block
// touched by a chunk's mutable state and reports every block two chunks
// share.
func checkChunkBlocks(t *testing.T, name string, sw *par.Sweeper[chunk]) {
	t.Helper()
	type owner struct {
		chunk int
		what  string
	}
	blocks := map[uintptr]owner{}
	mark := func(c int, what string, p unsafe.Pointer, size uintptr) {
		if size == 0 {
			return
		}
		first, last := uintptr(p)/par.CacheGuard, (uintptr(p)+size-1)/par.CacheGuard
		for b := first; b <= last; b++ {
			if o, ok := blocks[b]; ok && o.chunk != c {
				t.Errorf("%s: block %#x holds chunk %d's %s and chunk %d's %s", name, b*par.CacheGuard, o.chunk, o.what, c, what)
			}
			blocks[b] = owner{c, what}
		}
	}
	markInts := func(c int, what string, s []int) {
		mark(c, what, unsafe.Pointer(unsafe.SliceData(s)), uintptr(len(s))*unsafe.Sizeof(int(0)))
	}
	for c := range sw.Slots {
		slot := &sw.Slots[c].V
		ch := &slot.State
		mark(c, "rng", unsafe.Pointer(&slot.Rng), unsafe.Sizeof(slot.Rng))
		mark(c, "delta header and ctr", unsafe.Pointer(&ch.dl), unsafe.Sizeof(ch.dl))
		markInts(c, "delta.k", ch.dl.k)
		markInts(c, "delta.kv", ch.dl.kv.Cells)
		touched := reflect.ValueOf(ch.dl.kv).FieldByName("touched")
		mark(c, "delta.touched", unsafe.Pointer(touched.Pointer()), uintptr(touched.Len()))
		mark(c, "probs", unsafe.Pointer(unsafe.SliceData(ch.probs)), uintptr(len(ch.probs))*8)
		mark(c, "mhChunk header", unsafe.Pointer(&ch.mh), unsafe.Sizeof(ch.mh))
		mark(c, "mhChunk.den", unsafe.Pointer(unsafe.SliceData(ch.mh.den)), uintptr(len(ch.mh.den))*8)
		markInts(c, "mhChunk.pDK", ch.mh.pDK)
	}
}
