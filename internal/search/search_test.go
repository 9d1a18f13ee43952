package search

import (
	"math/rand"
	"reflect"
	"testing"

	"lesm/internal/core"
	"lesm/internal/par"
	"lesm/internal/store"
	"lesm/internal/tpfg"
)

func testSource() Source {
	return Source{
		Words: []string{"query", "processing", "index", "database", "network"},
		Phrases: []Phrase{
			{Display: "query processing", Path: "o/1", Score: 3},
			{Display: "network learning", Path: "o/2", Score: 2},
		},
		Authors: []Author{
			{ID: 0, Label: "John Smith"},
			{ID: 1, Label: "Jane Doe"},
			{ID: 2, Label: ""},
		},
	}
}

func TestBuildCounts(t *testing.T) {
	ix := Build(testSource())
	if ix.Entries() != 10 {
		t.Fatalf("Entries = %d, want 10", ix.Entries())
	}
	if ix.Terms() == 0 || ix.Postings() == 0 {
		t.Fatalf("empty dictionary: terms=%d postings=%d", ix.Terms(), ix.Postings())
	}
}

// TestBuildAllocsIndependentOfWords checks that Build allocates nothing
// per word entry: words-only sources of n and 4n whole-token words, both
// large enough that par.NumChunks sits at its ceiling, must cost the same
// allocations up to a small constant.
func TestBuildAllocsIndependentOfWords(t *testing.T) {
	const n = 2048
	if par.NumChunks(n) != par.MaxChunks {
		t.Fatalf("NumChunks(%d) = %d, want the ceiling %d", n, par.NumChunks(n), par.MaxChunks)
	}
	words := syllableWords(rand.New(rand.NewSource(1)), 4*n)
	small := testing.AllocsPerRun(10, func() { Build(Source{Words: words[:n]}) })
	large := testing.AllocsPerRun(10, func() { Build(Source{Words: words}) })
	if d := large - small; d < -4 || d > 4 {
		t.Errorf("Build allocates %.0f times for %d words, %.0f for %d: more than a constant apart", small, n, large, 4*n)
	}
}

func TestExactSearchRanksAndTypes(t *testing.T) {
	ix := Build(testSource())
	hits := ix.Search("query", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %+v, want word + phrase", hits)
	}
	// The vocabulary word "query" is an exact full-name match (+1 bonus)
	// and must outrank the phrase that merely contains the token.
	if hits[0].Kind != KindWord || hits[0].Name != "query" {
		t.Fatalf("top hit = %+v, want the word entry", hits[0])
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatalf("exact-name bonus missing: %v vs %v", hits[0].Score, hits[1].Score)
	}
	found := false
	for _, h := range hits {
		if h.Kind == KindPhrase && h.Name == "query processing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("phrase hit missing from %+v", hits)
	}
}

func TestFuzzySearchWithinBound(t *testing.T) {
	ix := Build(testSource())
	// One edit: "databse" -> "database".
	hits := ix.Search("databse", 10)
	if len(hits) == 0 || hits[0].Name != "database" {
		t.Fatalf("distance-1 hits = %+v", hits)
	}
	if hits[0].Distance != 1 {
		t.Fatalf("Distance = %d, want 1", hits[0].Distance)
	}
	// Two edits on a long token: "procesing" missing s + swapped? use
	// "procesng" (two deletions) -> "processing".
	hits = ix.Search("procesng", 10)
	var names []string
	for _, h := range hits {
		names = append(names, h.Name)
	}
	ok := false
	for _, n := range names {
		if n == "processing" {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("distance-2 hits = %v, want processing", names)
	}
	// Beyond the bound: three edits never match.
	if hits := ix.Search("praacesng", 10); len(hits) != 0 {
		t.Fatalf("distance-3 should be empty, got %+v", hits)
	}
}

func TestShortTokensAreExactOnly(t *testing.T) {
	ix := Build(Source{Words: []string{"go", "of"}})
	if hits := ix.Search("ga", 10); len(hits) != 0 {
		t.Fatalf("2-rune tokens must match exactly, got %+v", hits)
	}
	if hits := ix.Search("go", 10); len(hits) != 1 || hits[0].Name != "go" {
		t.Fatalf("exact short token: %+v", hits)
	}
}

func TestMaxDistBands(t *testing.T) {
	cases := map[string]int{"ab": 0, "abc": 1, "abcde": 1, "abcdef": 2, "σίσ": 1}
	for tok, want := range cases {
		if got := MaxDist(tok); got != want {
			t.Errorf("MaxDist(%q) = %d, want %d", tok, got, want)
		}
	}
}

func TestAuthorLookupByIDAndLabel(t *testing.T) {
	ix := Build(testSource())
	// By id digits.
	h, ok := ix.Resolve("1", KindAuthor)
	if !ok || h.ID != 1 {
		t.Fatalf("Resolve(1) = %+v, %v", h, ok)
	}
	// By label, fuzzily: "jon smith" -> "John Smith" (1 edit on "jon").
	h, ok = ix.Resolve("jon smith", KindAuthor)
	if !ok || h.ID != 0 {
		t.Fatalf("Resolve(jon smith) = %+v, %v", h, ok)
	}
	// Unlabeled author is reachable by digits only, named by them.
	h, ok = ix.Resolve("2", KindAuthor)
	if !ok || h.ID != 2 || h.Name != "2" {
		t.Fatalf("Resolve(2) = %+v, %v", h, ok)
	}
}

func TestResolveRequiresFullCoverage(t *testing.T) {
	ix := Build(testSource())
	// "query nonsenseword" matches "query" but not the second token: no
	// full-coverage hit exists.
	if h, ok := ix.Resolve("query nonsenseword"); ok {
		t.Fatalf("partial coverage resolved to %+v", h)
	}
	// Multi-token exact phrase resolves to the phrase entry.
	h, ok := ix.Resolve("query processing")
	if !ok || h.Kind != KindPhrase || h.Path != "o/1" {
		t.Fatalf("Resolve(query processing) = %+v, %v", h, ok)
	}
}

func TestResolveKindFilter(t *testing.T) {
	ix := Build(testSource())
	h, ok := ix.Resolve("network", KindWord)
	if !ok || h.Kind != KindWord {
		t.Fatalf("word filter: %+v, %v", h, ok)
	}
	if _, ok := ix.Resolve("network", KindAuthor); ok {
		t.Fatal("no author is named network")
	}
}

func TestSearchEmptyAndLimit(t *testing.T) {
	ix := Build(testSource())
	if hits := ix.Search("", 10); hits != nil {
		t.Fatalf("empty query: %+v", hits)
	}
	if hits := ix.Search("%%%", 10); hits != nil {
		t.Fatalf("punctuation-only query: %+v", hits)
	}
	all := ix.Search("query processing", 0)
	if lim := ix.Search("query processing", 1); len(lim) != 1 || lim[0] != all[0] {
		t.Fatalf("limit=1 = %+v, want first of %+v", lim, all)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := Build(testSource())
	a := ix.Search("network learning query", 0)
	for i := 0; i < 10; i++ {
		if b := ix.Search("network learning query", 0); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestBuildTwiceBitIdentical(t *testing.T) {
	src := testSource()
	a, b := Build(src), Build(src)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of one source differ structurally")
	}
	if a.Checksum() != b.Checksum() {
		t.Fatalf("checksums differ: %x vs %x", a.Checksum(), b.Checksum())
	}
	// A changed source must change the checksum (collision here would be a
	// canonicalization bug, not bad luck). The index keeps its source, so
	// the change goes into a copy.
	src.Words = append([]string{"different"}, src.Words[1:]...)
	if Build(src).Checksum() == a.Checksum() {
		t.Fatal("checksum ignored a content change")
	}
}

func TestCaseFoldedMatching(t *testing.T) {
	ix := Build(Source{Words: []string{"Σίσυφος"}})
	for _, q := range []string{"ΣΊΣΥΦΟΣ", "σίσυφος"} {
		if hits := ix.Search(q, 1); len(hits) != 1 || hits[0].Name != "Σίσυφος" {
			t.Fatalf("Search(%q) = %+v", q, hits)
		}
	}
}

func TestBoundedLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		max  int
		want int
	}{
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, 3}, // reported as max+1
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"", "ab", 2, 2},
		{"ab", "", 2, 2},
		{"abcdefgh", "abc", 2, 3}, // length gap beyond max: early exit
	}
	for _, c := range cases {
		got := boundedLevenshtein([]rune(c.a), c.b, c.max)
		if c.want > c.max {
			if got <= c.max {
				t.Errorf("lev(%q,%q,max=%d) = %d, want above max", c.a, c.b, c.max, got)
			}
		} else if got != c.want {
			t.Errorf("lev(%q,%q,max=%d) = %d, want %d", c.a, c.b, c.max, got, c.want)
		}
	}
}

func snapshotForSource() *store.Snapshot {
	h := core.NewHierarchy()
	h.TypeNames[1] = "author"
	n1 := h.Root.AddChild()
	n1.Phrases = []core.RankedPhrase{{Display: "query processing", Score: 3}}
	n1.Entities[1] = []core.RankedEntity{{ID: 0, Display: "John Smith", Score: 0.9}}
	n2 := h.Root.AddChild()
	n2.Phrases = []core.RankedPhrase{{Display: "network learning", Score: 2}}
	n2.Entities[1] = []core.RankedEntity{{ID: 1, Display: "Jane Doe", Score: 0.8}}
	return &store.Snapshot{
		Vocab:     []string{"query", "processing", "network"},
		Hierarchy: h,
		RolePhrases: []store.TopicPhrases{
			{Path: "o/1", Phrases: []core.RankedPhrase{{Display: "query processing", Score: 3}}},
		},
		Advisor: &store.Advisor{
			Net:  &tpfg.Network{NumAuthors: 3},
			Rank: [][]float64{{1}, {1}, {1}},
		},
	}
}

func TestSourceFromSnapshot(t *testing.T) {
	src := SourceFromSnapshot(snapshotForSource())
	if !reflect.DeepEqual(src.Words, []string{"query", "processing", "network"}) {
		t.Fatalf("Words = %v", src.Words)
	}
	// RolePhrases present: it wins over the hierarchy walk.
	if len(src.Phrases) != 1 || src.Phrases[0].Path != "o/1" {
		t.Fatalf("Phrases = %+v", src.Phrases)
	}
	want := []Author{{ID: 0, Label: "John Smith"}, {ID: 1, Label: "Jane Doe"}, {ID: 2, Label: ""}}
	if !reflect.DeepEqual(src.Authors, want) {
		t.Fatalf("Authors = %+v", src.Authors)
	}
}

func TestSourceFromSnapshotHierarchyPhrases(t *testing.T) {
	snap := snapshotForSource()
	snap.RolePhrases = nil
	src := SourceFromSnapshot(snap)
	if len(src.Phrases) != 2 {
		t.Fatalf("hierarchy walk phrases = %+v", src.Phrases)
	}
	if src.Phrases[0].Path != "o/1" || src.Phrases[1].Path != "o/2" {
		t.Fatalf("pre-order paths = %+v", src.Phrases)
	}
}

func TestSourceFromSnapshotDeterministic(t *testing.T) {
	snap := snapshotForSource()
	a := Build(SourceFromSnapshot(snap))
	for i := 0; i < 5; i++ {
		if b := Build(SourceFromSnapshot(snap)); a.Checksum() != b.Checksum() {
			t.Fatalf("run %d: snapshot extraction nondeterministic", i)
		}
	}
}

func TestSourceFromSnapshotNil(t *testing.T) {
	src := SourceFromSnapshot(nil)
	if src.Words != nil || src.Phrases != nil || src.Authors != nil {
		t.Fatalf("nil snapshot gave %+v", src)
	}
	ix := Build(src)
	if ix.Entries() != 0 || ix.Search("anything", 5) != nil {
		t.Fatal("empty index must match nothing")
	}
}

func TestFromSnapshot(t *testing.T) {
	ix := FromSnapshot(snapshotForSource())
	if h, ok := ix.Resolve("jane doe", KindAuthor); !ok || h.ID != 1 {
		t.Fatalf("FromSnapshot resolve = %+v, %v", h, ok)
	}
}
