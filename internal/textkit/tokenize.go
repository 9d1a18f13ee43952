package textkit

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// FoldRune maps r to its canonical case-folded form: the lowercase of the
// smallest rune in r's unicode.SimpleFold orbit that is, like r, a letter or
// digit (or, like r, neither). This is strictly stronger
// than unicode.ToLower — case variants that lowercasing keeps apart still
// fold together (Greek final sigma 'ς' and 'σ' both become 'σ', the Kelvin
// sign 'K' becomes 'k', long s 'ſ' becomes 's') — so a query folded with
// FoldRune always matches text folded with FoldRune regardless of which
// variant either side typed. Every text path that compares user input
// against indexed text (Tokenize, the phrase and entity search indexes)
// must fold through this one helper; mixing it with strings.ToLower
// reintroduces the non-ASCII mismatch it exists to prevent.
//
// The class restriction matters for one orbit: Greek iota (Ι, ι and the
// prosgegrammeni ι) shares its orbit with U+0345 COMBINING YPOGEGRAMMENI,
// a mark and the orbit's smallest rune. Folding iota to the mark would
// split every iota word when folded text is tokenized again. Keeping the
// class makes FoldRune idempotent and Tokenize(Fold(s)) == Tokenize(s);
// TestFoldRuneKeepsClassAllRunes checks every rune.
func FoldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			return r + ('a' - 'A')
		}
		return r
	}
	word := isWordRune(r)
	min := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < min && isWordRune(f) == word {
			min = f
		}
	}
	return unicode.ToLower(min)
}

// isWordRune reports whether r belongs in a token: a letter or a digit.
func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// IsToken reports whether s is one whole token: non-empty, valid UTF-8 and
// made of letters and digits only. Tokenize(s) is then exactly
// []string{Fold(s)}, so a caller holding Fold(s) already can skip
// Tokenize.
func IsToken(s string) bool {
	for _, r := range s {
		if !isWordRune(r) { // an invalid byte decodes to RuneError, a symbol
			return false
		}
	}
	return s != ""
}

// Fold case-folds every rune of s through FoldRune. It is the string-level
// companion of FoldRune for callers that compare whole strings (phrase
// display vs. query) rather than building tokens.
func Fold(s string) string {
	return strings.Map(FoldRune, s)
}

// Tokenize case-folds s (FoldRune) and splits it into maximal runs of
// letters and digits. Punctuation separates tokens; purely numeric tokens
// are kept (they matter for e.g. "20 conferences" style text but are
// typically removed by stopword filtering in callers that do not want
// them).
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case isWordRune(r):
			b.WriteRune(FoldRune(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// SplitSentences breaks s into phrase-invariant segments at punctuation that
// cannot be crossed by a phrase (commas, periods, semicolons, colons,
// question and exclamation marks, parentheses, brackets and slashes), per
// Section 4.3.1. Each returned segment is raw text to be tokenized.
func SplitSentences(s string) []string {
	isBreak := func(r rune) bool {
		switch r {
		case ',', '.', ';', ':', '?', '!', '(', ')', '[', ']', '{', '}', '/', '|', '"':
			return true
		}
		return false
	}
	var segs []string
	var b strings.Builder
	flush := func() {
		t := strings.TrimSpace(b.String())
		if t != "" {
			segs = append(segs, t)
		}
		b.Reset()
	}
	for _, r := range s {
		if isBreak(r) {
			flush()
			continue
		}
		b.WriteRune(r)
	}
	flush()
	return segs
}

// Pipeline bundles the preprocessing choices applied to raw text before
// topic or phrase mining.
type Pipeline struct {
	// RemoveStopwords drops tokens in the English stopword list.
	RemoveStopwords bool
	// Stem applies the Porter stemming algorithm to each kept token.
	Stem bool
	// MinLen drops tokens shorter than this many bytes (after stemming).
	MinLen int
}

// DefaultPipeline mirrors the paper's preprocessing: stopwords removed, no
// stemming (stemming is enabled for the long-text ToPMine experiments).
var DefaultPipeline = Pipeline{RemoveStopwords: true, MinLen: 2}

// Process tokenizes s and applies the pipeline, returning surviving tokens.
func (p Pipeline) Process(s string) []string {
	raw := Tokenize(s)
	out := raw[:0]
	for _, t := range raw {
		if p.RemoveStopwords && IsStopword(t) {
			continue
		}
		if p.Stem {
			t = PorterStem(t)
		}
		if len(t) < p.MinLen {
			continue
		}
		out = append(out, t)
	}
	return out
}

// ProcessSegments splits s into phrase-invariant segments and applies the
// pipeline to each, dropping empty segments. ToPMine consumes this form so
// that candidate phrases never cross punctuation.
func (p Pipeline) ProcessSegments(s string) [][]string {
	var out [][]string
	for _, seg := range SplitSentences(s) {
		toks := p.Process(seg)
		if len(toks) > 0 {
			out = append(out, toks)
		}
	}
	return out
}
