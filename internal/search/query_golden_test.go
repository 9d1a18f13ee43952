package search

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"lesm/internal/textkit"
)

// goldenQueries are the query shapes TestQueryGolden runs on every index:
// exact names, one and two typos, several tokens, digits, non-ASCII text,
// and queries with no token at all.
var goldenQueries = []string{
	// exact
	"query", "Query", "DATABASE", "data", "Query Processing", "john smith", "JOHN SMITH",
	"o'neil", "e-mail", "agent 7",
	// one typo
	"qeury", "databse", "dta", "procesing", "jon smith", "kelvn",
	// two typos
	"databsae", "prcessing", "qurey procesing",
	// several tokens
	"data mining", "query processing data", "e-mail filter spam", "smith john", "data data",
	// digits
	"2014", "k200", "7", "12", "1", "0", "2015",
	// non-ASCII
	"Kelvin", "ſtate", "STATE", "Σίσυφος", "ΣΊΣΥΦΟΣ", "σισυφος", "caf\xe9", "ΐota", "abͅc", "东京",
	// no token
	"", " ", "--", "%%%", "\xff",
}

// digestHit writes every field of h, the floats as bits.
func digestHit(w hash.Hash, h Hit) {
	fmt.Fprintf(w, "%d|%q|%d|%q|%x|%x|%d|%d|%d\n", h.Kind, h.Name, h.ID, h.Path,
		math.Float64bits(h.Weight), math.Float64bits(h.Score), h.Distance, h.Matched, h.Of)
}

// queryDigest runs every lookup of the index's exported API over queries
// and returns the sha256 of the answers: Search(q, 0) hits, Resolve(q) with
// no kind and with KindPhrase, WithName(q), WithToken of the folded query
// and of each of its tokens, and Phrases().
func queryDigest(ix *Index, queries []string) string {
	w := sha256.New()
	lo, folded := ix.Phrases()
	fmt.Fprintf(w, "phrases %d %q\n", lo, folded)
	for _, q := range queries {
		fmt.Fprintf(w, "query %q\n", q)
		for _, h := range ix.Search(q, 0) {
			digestHit(w, h)
		}
		h, ok := ix.Resolve(q)
		fmt.Fprintf(w, "resolve %v ", ok)
		digestHit(w, h)
		h, ok = ix.Resolve(q, KindPhrase)
		fmt.Fprintf(w, "resolve phrase %v ", ok)
		digestHit(w, h)
		fmt.Fprintf(w, "name %v\n", ix.WithName(q))
		fmt.Fprintf(w, "token %v\n", ix.WithToken(textkit.Fold(q)))
		for _, tok := range textkit.Tokenize(q) {
			fmt.Fprintf(w, "token %q %v\n", tok, ix.WithToken(tok))
		}
	}
	return hex.EncodeToString(w.Sum(nil))
}

// benchQueries draws n queries from the bench-shaped index's own names:
// each an exact name, a one-typo or a two-typo variant of one, or two
// names joined.
func benchQueries(ix *Index, n int) []string {
	rng := rand.New(rand.NewSource(7))
	qs := make([]string, n)
	for i := range qs {
		name := ix.Entry(rng.Intn(ix.Entries())).Name
		switch i % 4 {
		case 1:
			name = typo(rng, name)
		case 2:
			name = typo(rng, typo(rng, name))
		case 3:
			name += " " + ix.Entry(rng.Intn(ix.Entries())).Name
		}
		qs[i] = name
	}
	return qs
}

// TestQueryGolden pins what the index answers, hit by hit with scores as
// bits, on goldenSource, on the bench-shaped syllable index (words only)
// and on benchSource (words, phrases and authors). It was captured before
// the index moved to flat arrays (CSR postings, a sorted name table,
// entries read from the Source), which must answer every lookup alike.
func TestQueryGolden(t *testing.T) {
	words, _ := benchIndex(0, false)
	mixed := Build(benchSource())
	for _, c := range []struct {
		name    string
		ix      *Index
		queries []string
		want    string
	}{
		{"golden", Build(goldenSource()), goldenQueries, "9f7da227b8a0389fd97c3b14cefb77c8e83b35b3e53138b01fc9901c7e4c1d3a"},
		{"bench-words", words, append(benchQueries(words, 200), goldenQueries...), "6466ed5416358bf22d3bf7a649dd3d619eef101ca9f27d1b1f0f88c3f02352f6"},
		{"bench-source", mixed, append(benchQueries(mixed, 200), goldenQueries...), "f42fa9ec5af7ece2fbf4c9b7c8322057a96e2aae74dcd51760132e469200b8c1"},
	} {
		if got := queryDigest(c.ix, c.queries); got != c.want {
			t.Errorf("%s: query digest = %s, want %s", c.name, got, c.want)
		}
	}
}
