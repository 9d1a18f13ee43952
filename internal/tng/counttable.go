package tng

import (
	"lesm/internal/par"
	"lesm/internal/rng"
)

// tableKey is a key of a countTable: comparable, with a hash that spreads
// its fields over the probe sequence.
type tableKey interface {
	comparable
	hash() uint64
}

func (k bigramKey) hash() uint64 {
	return rng.Mix64(uint64(k.topic)<<32 ^ uint64(k.prev))
}

func (k trigramKey) hash() uint64 {
	return rng.Mix64(uint64(k.topic)<<42 ^ uint64(k.prev)<<21 ^ uint64(k.word))
}

// countTable is a sparse count table: an open-addressed (linear probing)
// map from key to count. It holds the global bigram counts and each
// chunk's diff against them. A Go map would not do in the chunk delta: a
// map's header is written on every assignment and is allocated wherever
// the runtime puts it, so the headers of neighbouring chunks' maps share
// cache lines; every word of a countTable is in the chunk's padded slot
// or in its PadSlice arrays. Entries stay until reset, including ones
// whose count returned to zero, as a map's would.
type countTable[K tableKey] struct {
	keys []K
	vals []int
	full []bool
	n    int // occupied slots
}

// slot returns the index of key's slot: the occupied one holding it, or
// the empty one where it would go.
func (t *countTable[K]) slot(key K) int {
	mask := len(t.keys) - 1
	i := int(key.hash()) & mask
	for t.full[i] && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's count change, 0 when absent.
func (t *countTable[K]) get(key K) int {
	if t.n == 0 {
		return 0
	}
	return t.vals[t.slot(key)]
}

// add adds c to key's count change.
func (t *countTable[K]) add(key K, c int) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	i := t.slot(key)
	if !t.full[i] {
		t.full[i] = true
		t.keys[i] = key
		t.n++
	}
	t.vals[i] += c
}

// grow doubles the table (from 64 slots), reinserting every entry.
func (t *countTable[K]) grow() {
	old := *t
	size := 2 * len(old.keys)
	if size == 0 {
		size = 64
	}
	*t = countTable[K]{
		keys: par.PadSlice[K](size), vals: par.PadSlice[int](size),
		full: par.PadSlice[bool](size), n: old.n,
	}
	for i, full := range old.full {
		if full {
			j := t.slot(old.keys[i])
			t.full[j], t.keys[j], t.vals[j] = true, old.keys[i], old.vals[i]
		}
	}
}

// each calls fn on every entry.
func (t *countTable[K]) each(fn func(key K, c int)) {
	for i, full := range t.full {
		if full {
			fn(t.keys[i], t.vals[i])
		}
	}
}

// mergeInto adds t's nonzero entries into dst, resets t and returns the
// number of entries it held.
func (t *countTable[K]) mergeInto(dst *countTable[K]) int {
	n := t.n
	t.each(func(key K, c int) {
		if c != 0 {
			dst.add(key, c)
		}
	})
	t.reset()
	return n
}

// reset empties the table, keeping its capacity.
func (t *countTable[K]) reset() {
	if t.n == 0 {
		return
	}
	clear(t.full)
	clear(t.vals)
	t.n = 0
}
