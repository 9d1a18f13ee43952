package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lesm/internal/textkit"
)

// boundedLevenshtein computes the edit distance between the rune slice a
// and the (folded) string b, giving up as soon as it provably exceeds
// max: rows whose minimum passes the bound return max+1 immediately, and
// a length difference beyond max never starts the DP at all. It is the
// brute-force oracle the dictionary walk is checked against.
func boundedLevenshtein(a []rune, b string, max int) int {
	br := []rune(b)
	la, lb := len(a), len(br)
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if diff > max {
		return max + 1
	}
	if la == 0 {
		return lb
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == br[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if d := prev[j] + 1; d < v {
				v = d
			}
			if d := cur[j-1] + 1; d < v {
				v = d
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > max {
			return max + 1
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// scanWithin is the full dictionary scan within replaces: every term
// within max edits of qr, in dictionary order.
func scanWithin(ix *Index, qr []rune, max int) []termMatch {
	var out []termMatch
	for t, term := range ix.terms {
		if d := boundedLevenshtein(qr, term, max); d <= max {
			out = append(out, termMatch{term: t, dist: d})
		}
	}
	return out
}

// scanExpand is expand over the full scan.
func scanExpand(ix *Index, token string) []termMatch {
	for t, term := range ix.terms {
		if term == token {
			return []termMatch{{term: t, dist: 0}}
		}
	}
	max := MaxDist(token)
	if max == 0 {
		return nil
	}
	return ix.rank(scanWithin(ix, []rune(token), max))
}

// checkExpand compares the walk with the scan for query q at every bound
// up to 3 (the full match list, before the cap) and, for each of q's
// tokens, expand itself (ranked and capped).
func checkExpand(t *testing.T, ix *Index, q string) {
	t.Helper()
	qr := []rune(q)
	for max := 0; max <= 3; max++ {
		got, want := ix.within(qr, max), scanWithin(ix, qr, max)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("within(%q, %d) = %v, scan = %v", q, max, got, want)
			}
		}
	}
	for _, tok := range textkit.Tokenize(q) {
		got, want := ix.expand(tok), scanExpand(ix, tok)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("expand(%q) = %v, scan = %v", tok, got, want)
			}
		}
	}
}

// mutate applies up to edits random rune edits drawn from alphabet.
func mutate(rng *rand.Rand, s string, alphabet []rune, edits int) string {
	r := []rune(s)
	for e := rng.Intn(edits + 1); e > 0; e-- {
		pos := rng.Intn(len(r) + 1)
		c := alphabet[rng.Intn(len(alphabet))]
		switch op := rng.Intn(3); {
		case op == 0 && pos < len(r):
			r[pos] = c
		case op == 1 && pos < len(r):
			r = append(r[:pos], r[pos+1:]...)
		default:
			r = append(r[:pos], append([]rune{c}, r[pos:]...)...)
		}
	}
	return string(r)
}

func randomWord(rng *rand.Rand, alphabet []rune, minLen, maxLen int) string {
	r := make([]rune, minLen+rng.Intn(maxLen-minLen+1))
	for i := range r {
		r[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(r)
}

func TestWithinMatchesScan(t *testing.T) {
	multi := []rune("abcéèßσ東京")
	rng := rand.New(rand.NewSource(7))
	dicts := map[string][]string{
		"empty":    nil,
		"one-term": {"database"},
	}
	var random []string
	for i := 0; i < 400; i++ {
		random = append(random, randomWord(rng, multi, 1, 9))
	}
	dicts["multibyte"] = random
	// Long shared prefixes: every prefix of a long stem, and the stem with
	// short tails, so runs of terms reuse deep rows and die together.
	const stem = "informationretrieval"
	var prefixed []string
	for i := 1; i <= len(stem); i++ {
		prefixed = append(prefixed, stem[:i])
	}
	for i := 0; i < 200; i++ {
		prefixed = append(prefixed, stem[:8+rng.Intn(len(stem)-8)]+randomWord(rng, multi, 1, 4))
	}
	// Terms past 64 runes, where queries of their length lose the ASCII
	// match table.
	long4 := strings.Repeat(stem, 4)
	prefixed = append(prefixed, long4, long4+"s", long4[:70]+"é"+long4[70:], long4[:66])
	dicts["shared-prefixes"] = prefixed
	// Terms longer than typical queries by far more than any bound.
	var long []string
	for i := 0; i < 100; i++ {
		long = append(long, randomWord(rng, []rune("abé"), 3, 6), randomWord(rng, []rune("abé"), 12, 40))
	}
	dicts["long-terms"] = long

	for name, words := range dicts {
		t.Run(name, func(t *testing.T) {
			ix := Build(Source{Words: words})
			queries := []string{"", "a", "ab", "abc", "é", "datbase", stem, stem + "s", "informatoin",
				long4, long4[1:], long4[:64], long4[:65], long4[:66] + "x" + long4[67:], long4[:70] + "éé" + long4[70:]}
			for i := 0; i < 300; i++ {
				if len(ix.terms) > 0 && i%2 == 0 {
					queries = append(queries, mutate(rng, ix.terms[rng.Intn(len(ix.terms))], multi, 3))
				} else {
					queries = append(queries, randomWord(rng, multi, 1, 12))
				}
			}
			for _, q := range queries {
				checkExpand(t, ix, q)
			}
		})
	}
}

// TestWithinMatchesScanBenchDictionary runs the differential check on the
// bench-shaped dictionary with the bench's own one-typo queries, plus two-
// and three-edit variants.
func TestWithinMatchesScanBenchDictionary(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	ix, qs := benchIndex(n, true)
	rng := rand.New(rand.NewSource(3))
	letters := []rune("abcdefghijklmnopqrstuvwxyz")
	for i, q := range qs {
		checkExpand(t, ix, q)
		if i%4 == 0 {
			checkExpand(t, ix, mutate(rng, q, letters, 2))
		}
	}
}

// TestHugeQueryTokenAllocatesLinearly pins the walk's memory bound: a
// 1 MiB single-token query allocates a small multiple of its length (the
// tokenizer's copy and the token's runes), not a row of query length per
// dictionary depth.
func TestHugeQueryTokenAllocatesLinearly(t *testing.T) {
	ix, _ := benchIndex(0, false)
	for _, q := range []string{strings.Repeat("ba", 1<<19), strings.Repeat("é", 1<<19)} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		hits := ix.Search(q, 10)
		runtime.ReadMemStats(&after)
		if len(hits) != 0 {
			t.Fatalf("a 1 MiB token matched %d hits", len(hits))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(12*len(q)) {
			t.Fatalf("Search of a %d-byte token allocated %d bytes", len(q), alloc)
		}
	}
}

// TestIotaWordSearchesExactly is the search-side regression test for the
// Greek iota fold: an iota word must be indexed as one term and found by
// its own name as an exact hit, not as a distance-2 fuzzy one.
func TestIotaWordSearchesExactly(t *testing.T) {
	ix := Build(Source{Words: []string{"Φιλοσοφία"}})
	for _, q := range []string{"Φιλοσοφία", "φιλοσοφία", "ΦΙΛΟΣΟΦΊΑ"} {
		hits := ix.Search(q, 1)
		if len(hits) != 1 || hits[0].Distance != 0 || hits[0].Score != 2 {
			t.Fatalf("Search(%q) = %+v, want one exact hit with score 2", q, hits)
		}
	}
	if ix.Terms() != 1 {
		t.Fatalf("Terms = %d, want 1 (the word is one token)", ix.Terms())
	}
}

// fuzzWords splits fuzz input into at most 64 words of at most 96 bytes.
func fuzzWords(s string) []string {
	words := strings.Fields(s)
	if len(words) > 64 {
		words = words[:64]
	}
	for i, w := range words {
		if len(w) > 96 {
			words[i] = w[:96]
		}
	}
	return words
}

func FuzzExpand(f *testing.F) {
	f.Add("database databases datum data", "databse")
	f.Add("ßtraße strasse Σίσυφος σίσυφοσ 東京 東京都", "strase")
	f.Add("informationretrieval information informatics inform", "informatoin")
	f.Add("é è ê ëé éé", "ée")
	f.Add("a", "aaaaaaaaaaaaaaaaaaaaaaaa")
	f.Add("", "query")
	f.Add("informationretrievalinformationretrievalinformationretrievalinformationretrieval",
		"informationretrievalinformationretrievalinformationretrievalinformationretrievl")
	f.Fuzz(func(t *testing.T, dict, q string) {
		if len(q) > 96 {
			q = q[:96]
		}
		checkExpand(t, Build(Source{Words: fuzzWords(dict)}), q)
	})
}

func FuzzSearch(f *testing.F) {
	f.Add("query processing\nnetwork learning", "query procesing")
	f.Add("Φιλοσοφία\nΣίσυφος rolls", "φιλοσοφια")
	f.Add("John Smith\nJane Doe\n%%%", "jon smith")
	f.Add("东京 大学\nstraße", "1")
	f.Fuzz(func(t *testing.T, dict, q string) {
		if len(dict) > 512 || len(q) > 128 {
			return
		}
		var src Source
		src.Words = fuzzWords(dict)
		for i, line := range strings.Split(dict, "\n") {
			src.Phrases = append(src.Phrases, Phrase{Display: line, Path: fmt.Sprint("o/", i), Score: float64(i % 3)})
			src.Authors = append(src.Authors, Author{ID: i, Label: line})
		}
		ix := Build(src)

		hits := ix.Search(q, 0)
		if again := ix.Search(q, 0); !reflect.DeepEqual(hits, again) {
			t.Fatalf("Search(%q) differs between calls:\n%+v\n%+v", q, hits, again)
		}
		for i := 1; i < len(hits); i++ {
			if hitLess(hits[i], hits[i-1]) {
				t.Fatalf("Search(%q) hit %d out of order: %+v before %+v", q, i, hits[i-1], hits[i])
			}
		}
		if len(hits) > 2 {
			if top := ix.Search(q, 2); !reflect.DeepEqual(top, hits[:2]) {
				t.Fatalf("Search(%q, 2) = %+v, want %+v", q, top, hits[:2])
			}
		}
		ix.Resolve(q)

		for e, name := range ix.foldedName {
			h, ok := ix.Resolve(name)
			if !ok || h.Distance != 0 {
				t.Fatalf("Resolve(%q) = %+v, %v: want a distance-0 hit", name, h, ok)
			}
			if len(textkit.Tokenize(name)) == 0 {
				continue
			}
			found := false
			for _, h := range ix.Search(name, 0) {
				if h.Entry == ix.Entry(e) && h.Distance == 0 && h.Matched == h.Of {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("Search(%q) misses its own entry %+v as an exact full match", name, ix.Entry(e))
			}
		}
	})
}
