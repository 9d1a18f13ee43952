package textkit

import (
	"reflect"
	"testing"
	"unicode"
)

// TestFoldIotaStaysALetter is the regression test for the Greek iota fold:
// Ι, ι and ι share their SimpleFold orbit with U+0345 COMBINING
// YPOGEGRAMMENI, the orbit's smallest rune but a mark, not a letter. Folding
// iota to it made "Φιλοσοφία" one token when tokenized directly but two
// ("φ", "λοσοφία") when its folded form was tokenized again.
func TestFoldIotaStaysALetter(t *testing.T) {
	for _, r := range []rune{'Ι', 'ι', 'ι'} {
		if got := FoldRune(r); got != 'ι' {
			t.Errorf("FoldRune(%U) = %U, want U+03B9", r, got)
		}
	}
	if got := FoldRune('ͅ'); got != 'ͅ' {
		t.Errorf("FoldRune(U+0345) = %U, the mark must stay a mark", got)
	}
	want := []string{"φιλοσοφία"}
	for _, s := range []string{"Φιλοσοφία", "ΦΙΛΟΣΟΦΊΑ", Fold("Φιλοσοφία")} {
		if got := Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestFoldRuneKeepsClassAllRunes checks every rune: FoldRune is idempotent
// and never moves a rune into or out of the letter/digit class Tokenize
// splits on. Together these give Tokenize(Fold(s)) == Tokenize(s).
func TestFoldRuneKeepsClassAllRunes(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		f := FoldRune(r)
		if isWordRune(f) != isWordRune(r) {
			t.Errorf("FoldRune(%U) = %U changes the letter/digit class", r, f)
		}
		if g := FoldRune(f); g != f {
			t.Errorf("FoldRune not idempotent at %U: %U then %U", r, f, g)
		}
	}
}

// FuzzTokenizeFold pins the fold/tokenize contract the search index relies
// on: an entry is indexed under Tokenize(name) and looked up through
// Tokenize(Fold(query)), so the two must agree on every input.
func FuzzTokenizeFold(f *testing.F) {
	for _, s := range []string{
		"", "Query Processing", "Φιλοσοφία", "ΣΊΣΥΦΟΣ rolls", "K ſ ß ẞ",
		"aͅb", "東京 大学 2014", "x\xffy\xe2\x82", "i̇ İ ı",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fs := Fold(s)
		if Fold(fs) != fs {
			t.Fatalf("Fold not idempotent on %q: %q then %q", s, fs, Fold(fs))
		}
		toks := Tokenize(s)
		if got := Tokenize(fs); !reflect.DeepEqual(got, toks) {
			t.Fatalf("Tokenize(Fold(%q)) = %q, Tokenize = %q", s, got, toks)
		}
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) yields an empty token", s)
			}
			for _, r := range tok {
				if !isWordRune(r) {
					t.Fatalf("Tokenize(%q) token %q holds %U, not a letter or digit", s, tok, r)
				}
			}
		}
	})
}
