package tng

import (
	"math/rand"
	"testing"
)

// TestCountTableMatchesMap drives a countTable and a Go map with the same
// adds across growth and resets and compares every lookup and the full
// entry set.
func TestCountTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tab countTable[trigramKey]
	for round := 0; round < 3; round++ {
		want := map[trigramKey]int{}
		for i := 0; i < 2000; i++ {
			key := trigramKey{r.Intn(4), r.Intn(40), r.Intn(40)}
			c := r.Intn(3) - 1
			tab.add(key, c)
			want[key] += c
			probe := trigramKey{r.Intn(4), r.Intn(40), r.Intn(40)}
			if got := tab.get(probe); got != want[probe] {
				t.Fatalf("round %d: get(%v) = %d, want %d", round, probe, got, want[probe])
			}
		}
		got := map[trigramKey]int{}
		tab.each(func(key trigramKey, c int) { got[key] = c })
		if len(got) != len(want) {
			t.Fatalf("round %d: %d entries, want %d", round, len(got), len(want))
		}
		for key, c := range want {
			if got[key] != c {
				t.Fatalf("round %d: entry %v = %d, want %d", round, key, got[key], c)
			}
		}
		tab.reset()
		if n := tab.get(trigramKey{0, 0, 0}); n != 0 {
			t.Fatalf("after reset: get = %d, want 0", n)
		}
	}
}
