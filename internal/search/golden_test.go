package search

import (
	"reflect"
	"slices"
	"testing"

	"lesm/internal/textkit"
)

// goldenSource mixes every case the index build treats specially: mixed
// case, folds that lowercasing alone misses (the Kelvin sign U+212A, long s ſ,
// final sigma), digits, words that punctuation splits into several tokens,
// invalid UTF-8, names repeating a token, names that fold to one another,
// and authors with and without labels (one label repeating its own id).
func goldenSource() Source {
	return Source{
		Words: []string{
			"query", "Query", "DATABASE", "\u212Aelvin", "kelvin", "ſtate", "Σίσυφος", "σίσυφοσ",
			"k200", "2014", "e-mail", "o'neil", "caf\xe9", "\xff", "", "--", "data", "ΐota", "abͅc",
		},
		Phrases: []Phrase{
			{Display: "Query Processing", Path: "o/1", Score: 3},
			{Display: "data data mining", Path: "o/1", Score: 2.5},
			{Display: "query processing", Path: "o/2", Score: 1},
			{Display: "e-mail spam, e-mail filter", Path: "o/2/1", Score: 0.125},
			{Display: "ſtate of the \u212Aelvin", Path: "o", Score: 0},
			{Display: "caf\xe9 au lait", Path: "o/3", Score: 1e-9},
		},
		Authors: []Author{
			{ID: 0, Label: "John Smith"},
			{ID: 1, Label: ""},
			{ID: 2, Label: "JOHN SMITH"},
			{ID: 7, Label: "Agent 7"},
			{ID: 12, Label: "o'neil-smith"},
		},
	}
}

// TestBuildChecksumGolden pins the index Build makes of goldenSource: the
// Checksum (entries, folded names, term dictionary and postings) and the
// per-entry distinct token counts that normalize match scores, which the
// Checksum does not cover. A change to Build that moves either changes
// what /search returns.
func TestBuildChecksumGolden(t *testing.T) {
	ix := Build(goldenSource())
	const wantSum = uint64(0xc9f5dfe4670bfd14)
	if got := ix.Checksum(); got != wantSum {
		t.Errorf("Checksum = %#016x, want %#016x", got, wantSum)
	}
	wantTokens := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 3, 3, 1, 3, 2, 4}
	gotTokens := make([]int, len(ix.nameTokens))
	for i, c := range ix.nameTokens {
		gotTokens[i] = int(c)
	}
	if !reflect.DeepEqual(gotTokens, wantTokens) {
		t.Errorf("nameTokens = %v, want %v", gotTokens, wantTokens)
	}
	for i := 0; i < ix.Entries(); i++ {
		e := ix.Entry(i)
		found := false
		for _, id := range ix.WithName(e.Name) {
			found = found || int(id) == i
		}
		if !found {
			t.Errorf("entry %d (%q) does not resolve by its own name", i, e.Name)
		}
	}
}

// wordTokenCases are words on both sides of wordTokens' shortcut: whole
// tokens (ASCII, other scripts, digits, runes that fold beyond lowercasing)
// and words Tokenize must split or drop (punctuation, marks, spaces,
// invalid UTF-8, the empty word).
var wordTokenCases = []string{
	"query", "Query", "DATABASE", "k200", "2014", "\u212Aelvin", "ſtate", "Σίσυφος",
	"ΣΊΣΥΦΟΣ", "ΐota", "东京", "straße", "İstanbul", "١٢٣",
	"", " ", "e-mail", "o'neil", "abͅc", "caf\xe9", "\xff", "a\xe2\x82", "--", "x y", "a_b", "½",
}

// TestWordTokensMatchTokenize checks that the vocabulary-word path of
// Build, which takes a whole-token word's folded form as its one token,
// yields exactly textkit.Tokenize(word).
func TestWordTokensMatchTokenize(t *testing.T) {
	for _, w := range wordTokenCases {
		var one [1]string
		got := wordTokens(&one, w, textkit.Fold(w))
		if want := textkit.Tokenize(w); !slices.Equal(got, want) {
			t.Errorf("wordTokens(%q) = %q, Tokenize = %q", w, got, want)
		}
	}
}

func FuzzWordTokens(f *testing.F) {
	for _, w := range wordTokenCases {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		var one [1]string
		got := wordTokens(&one, w, textkit.Fold(w))
		if want := textkit.Tokenize(w); !slices.Equal(got, want) {
			t.Fatalf("wordTokens(%q) = %q, Tokenize = %q", w, got, want)
		}
	})
}
