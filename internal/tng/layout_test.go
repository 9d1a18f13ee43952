package tng

import (
	"reflect"
	"strings"
	"testing"

	"lesm/internal/par"
	"lesm/internal/synth"
)

// TestChunkStateCacheLinePrivate pins the worker-private layout by
// address, without timing: after the initialization pass of fits at small
// K (where the per-slot arrays are a few dozen bytes and would share a
// size class), no par.CacheGuard-aligned block may hold mutable words of
// two worker slots. A shared block means two workers write one cache-line
// pair and P=2 sweeps stall on false sharing.
//
// The walk covers each slot's padded value (its PRNG stream and state
// header) and every array reachable from it through slices and structs:
// the live delta and the pass accumulator, each with its tables, touched
// flags and bigram count tables' keys, values and occupancy flags, and
// the probability scratch. It leaves
// out arrays that several slots reference, which are the frozen global
// tables the chunks only read; arrays of slice headers, written once when
// allocated; and the append-grown dirty lists, written once per first
// touch of a cell.
func TestChunkStateCacheLinePrivate(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 200, Seed: 47})
	docs := make([][]int, len(ds.Corpus.Docs))
	for i, d := range ds.Corpus.Docs {
		docs[i] = d.Tokens
	}
	v := ds.Corpus.Vocab.Size()
	for _, cfg := range []Config{
		{K: 3, Iters: 1, Seed: 48, P: 4},
		{K: 2, Iters: 1, Seed: 49, Discount: 0.5, P: 4},
	} {
		s, err := newSampler(docs, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Slots) < 2 {
			t.Fatalf("K=%d: %d worker slots, the check needs at least 2", cfg.K, len(s.Slots))
		}
		// A bigram table allocates its arrays on its first entry, an
		// accumulator's pair list holds pairs only between a fold and the
		// merge, and the init pass may have dealt every chunk to one
		// worker: give each slot's live delta and accumulator entries.
		for c := range s.Slots {
			ws := &s.Slots[c].V.State
			ws.dl.add(0, 0, 0, 0, 1)
			ws.dl.add(0, 1, 0, 0, 1)
			ws.dl.foldInto(&ws.acc)
		}
		var regions []stateRegion
		for c := range s.Slots {
			slot := reflect.ValueOf(&s.Slots[c].V).Elem()
			regions = append(regions, stateRegion{c, "slot", slot.Addr().Pointer(), slot.Type().Size()})
			regions = walkChunkState(regions, c, "", slot)
		}
		checkChunkRegions(t, cfg.K, len(s.Slots), regions)
	}
}

// stateRegion is one stretch of memory reachable from chunk c's slot.
type stateRegion struct {
	chunk int
	path  string
	p     uintptr
	size  uintptr
}

// walkChunkState appends the backing arrays of every slice reachable from
// v through structs, arrays and slices. Pointers, maps and functions are
// not followed: they lead to shared state.
func walkChunkState(out []stateRegion, c int, path string, v reflect.Value) []stateRegion {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Name == "dirty" {
				continue
			}
			out = walkChunkState(out, c, path+"."+f.Name, v.Field(i))
		}
	case reflect.Array:
		if v.Type().Elem().Kind() == reflect.Slice || v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				out = walkChunkState(out, c, path, v.Index(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return out
		}
		if v.Type().Elem().Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				out = walkChunkState(out, c, path+"[]", v.Index(i))
			}
			return out
		}
		out = append(out, stateRegion{c, path, v.Pointer(), uintptr(v.Len()) * v.Type().Elem().Size()})
	}
	return out
}

// checkChunkRegions drops the arrays two slots share, checks that the
// rest covers the delta tables, probability scratch and bigram tables of
// every slot, live delta and accumulator alike, and reports every
// CacheGuard-aligned block that holds words of two slots.
func checkChunkRegions(t *testing.T, k, chunks int, regions []stateRegion) {
	t.Helper()
	owners := map[uintptr]map[int]bool{}
	for _, r := range regions {
		if owners[r.p] == nil {
			owners[r.p] = map[int]bool{}
		}
		owners[r.p][r.chunk] = true
	}
	covered := map[string]map[int]bool{}
	type owner struct {
		chunk int
		what  string
	}
	blocks := map[uintptr]owner{}
	for _, r := range regions {
		if r.path != "slot" && len(owners[r.p]) > 1 {
			continue
		}
		for _, name := range strings.Split(strings.ReplaceAll(r.path, "[]", ""), ".") {
			if covered[name] == nil {
				covered[name] = map[int]bool{}
			}
			covered[name][r.chunk] = true
		}
		first, last := r.p/par.CacheGuard, (r.p+r.size-1)/par.CacheGuard
		for b := first; b <= last; b++ {
			if o, ok := blocks[b]; ok && o.chunk != r.chunk {
				t.Errorf("K=%d: block %#x holds chunk %d's %s and chunk %d's %s", k, b*par.CacheGuard, o.chunk, o.what, r.chunk, r.path)
			}
			blocks[b] = owner{r.chunk, r.path}
		}
	}
	for _, name := range []string{"dl", "acc", "kv", "k", "n0", "n1", "touched", "probs", "big", "bigTot", "keys", "vals", "full"} {
		if len(covered[name]) != chunks {
			t.Errorf("K=%d: %q arrays found in %d of %d chunks", k, name, len(covered[name]), chunks)
		}
	}
}
