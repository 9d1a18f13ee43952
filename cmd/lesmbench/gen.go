package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lesm"
	"lesm/internal/search"
	"lesm/internal/synth"
	"lesm/internal/textkit"
)

// Input generation. Every input is a pure function of the seed; the
// program under test receives only the generated raw text, documents and
// request strings.

const (
	smallPapers = 4000  // serving model corpus
	largePapers = 12000 // fit workload corpus

	// The tail: synth's own vocabulary is only ~390 words, so a K=200 model
	// over it would be 200×390 and every working-set effect would vanish.
	// After each generated token, with probability tailProb, a word drawn
	// from a Zipf(tailZipfS) law over tailWords syllable words is inserted.
	tailWords = 30000
	tailProb  = 0.4
	tailZipfS = 1.07

	// Held-out /infer documents: ≈120 raw tokens each (≈86 synth tokens plus
	// the 0.4 tail), drawn from a disjoint seed.
	heldOutSeedOffset = 1000
	heldOutMin        = 80
	heldOutMax        = 92
)

// corpusInput is one generated corpus: a raw-text line per paper plus the
// paper's attached entities (authors, venue) and the generator's truth.
type corpusInput struct {
	Lines []string
	Base  *synth.Dataset
}

// syllableWords returns n distinct pronounceable words (2–4 consonant-vowel
// syllables), none a stopword and none in avoid. One-edit variants of such
// words are usually other words of the list, which gives fuzzy search a
// dense neighbourhood.
func syllableWords(rng *rand.Rand, n int, avoid *textkit.Vocabulary) []string {
	const cons, vows = "bcdfghjklmnprstvwz", "aeiou"
	seen := map[string]bool{}
	out := make([]string, 0, n)
	var b strings.Builder
	for len(out) < n {
		b.Reset()
		for s := 2 + rng.Intn(3); s > 0; s-- {
			b.WriteByte(cons[rng.Intn(len(cons))])
			b.WriteByte(vows[rng.Intn(len(vows))])
		}
		w := b.String()
		if _, known := avoid.ID(w); seen[w] || known || textkit.IsStopword(w) {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// tail draws Zipf-distributed tail words.
type tail struct {
	words []string
	zipf  *rand.Zipf
	rng   *rand.Rand
}

func newTail(seed int64, avoid *textkit.Vocabulary) *tail {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	words := syllableWords(rng, tailWords, avoid)
	return &tail{words: words, rng: rng, zipf: rand.NewZipf(rng, tailZipfS, 30, tailWords-1)}
}

// render writes ds's papers as raw-text lines, inserting tail words.
func (t *tail) render(ds *synth.Dataset) []string {
	lines := make([]string, len(ds.Corpus.Docs))
	var b strings.Builder
	for i, d := range ds.Corpus.Docs {
		b.Reset()
		for j, id := range d.Tokens {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(ds.Corpus.Vocab.Word(id))
			if t.rng.Float64() < tailProb {
				b.WriteByte(' ')
				b.WriteString(t.words[t.zipf.Uint64()])
			}
		}
		lines[i] = b.String()
	}
	return lines
}

// genCorpus builds the corpus of the given size for seed, plus the tail it
// used (the held-out documents draw from the same tail vocabulary).
func genCorpus(seed int64, papers int) (*corpusInput, *tail) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: papers, Seed: seed})
	t := newTail(seed, ds.Corpus.Vocab)
	return &corpusInput{Lines: t.render(ds), Base: ds}, t
}

// heldOutDocs generates n unseen documents as token strings, the form an
// /infer client sends.
func heldOutDocs(seed int64, t *tail, n int) [][]string {
	ds := synth.DBLP(synth.DBLPConfig{
		NumPapers: n, Seed: seed + heldOutSeedOffset,
		TitleMin: heldOutMin, TitleMax: heldOutMax,
	})
	lines := t.render(ds)
	docs := make([][]string, n)
	for i, l := range lines {
		docs[i] = lesm.DefaultPipeline.Process(l)
	}
	return docs
}

// inferBody is one pre-encoded /infer request.
type inferBody struct {
	Seed int64      `json:"seed"`
	Docs [][]string `json:"docs"`
}

// inferSizes is the repeating pattern of documents per /infer request:
// 1–4 docs, with the median request a 3-doc one. A uniform 1–4 draw puts
// the median latency between the 2-doc and 3-doc modes, where it jumps
// with each seed's draw.
var inferSizes = []int{1, 2, 3, 3, 4}

// inferRequests groups held-out documents into n requests.
func inferRequests(seed int64, t *tail, n int) []inferBody {
	total := 0
	for i := 0; i < n; i++ {
		total += inferSizes[i%len(inferSizes)]
	}
	docs := heldOutDocs(seed, t, total)
	out := make([]inferBody, n)
	for i := range out {
		k := inferSizes[i%len(inferSizes)]
		out[i] = inferBody{Seed: int64(i), Docs: docs[:k]}
		docs = docs[k:]
	}
	return out
}

// Lookup query kinds, in the mix's proportions (see doc.go).
const (
	qSearch = iota
	qEntity
	qTopWords
	qNode
)

// lookupQuery is one generated GET. Exact marks a query that names an
// indexed word exactly, for the ranked-first output check; Typo one whose
// text carries a generated edit.
type lookupQuery struct {
	Kind  int
	Path  string // URL path + query string
	Text  string // the search text or entity name (search/entity kinds)
	Exact bool
	Typo  bool
}

// lookupSlots is the repeating pattern of the lookup mix, 20 requests
// long: 40% /search (half exact, half one-edit typos within
// search.MaxDist; a quarter ground-truth phrases, the rest words), 30%
// /entity (half typos), 20% topic top words, 10% hierarchy nodes. A fixed
// pattern keeps every seed's mix in exactly these shares; the texts are
// drawn per seed.
var lookupSlots = []struct {
	kind         int
	typo, phrase bool
}{
	{qSearch, false, false}, {qSearch, true, false}, {qSearch, false, false}, {qSearch, true, false},
	{qSearch, false, false}, {qSearch, true, false}, {qSearch, false, true}, {qSearch, true, true},
	{qEntity, false, false}, {qEntity, true, false}, {qEntity, false, false}, {qEntity, true, false},
	{qEntity, false, false}, {qEntity, true, false},
	{qTopWords, false, false}, {qTopWords, false, false}, {qTopWords, false, false}, {qTopWords, false, false},
	{qNode, false, false}, {qNode, false, false},
}

// lookupQueries builds n GETs over the served model in the lookupSlots
// mix. Words are drawn by corpus frequency, so popular words are asked
// for more often.
func lookupQueries(seed int64, in *corpusInput, corpus *lesm.Corpus, k int, paths []string, n int) []lookupQuery {
	rng := rand.New(rand.NewSource(seed*131 + 7))
	var phrases []string
	for _, node := range in.Base.Truth.Nodes {
		phrases = append(phrases, node.Phrases...)
	}
	sort.Strings(phrases)
	word := func() string {
		d := corpus.Docs[rng.Intn(len(corpus.Docs))].Tokens
		return corpus.Vocab.Word(d[rng.Intn(len(d))])
	}
	out := make([]lookupQuery, n)
	for i := range out {
		slot := lookupSlots[i%len(lookupSlots)]
		q := lookupQuery{Kind: slot.kind, Typo: slot.typo}
		switch slot.kind {
		case qSearch, qEntity:
			q.Text = word()
			if slot.phrase {
				q.Text = phrases[rng.Intn(len(phrases))]
			}
			if slot.typo {
				q.Text = typo(rng, q.Text)
			}
			q.Path = "/entity/" + q.Text
			if slot.kind == qSearch {
				q.Exact = !slot.typo && !slot.phrase
				q.Path = "/search?q=" + queryEscape(q.Text) + "&limit=10"
			}
		case qTopWords:
			q.Path = fmt.Sprintf("/topics/%d/top-words?n=10", rng.Intn(k))
		default:
			q.Path = "/hierarchy/node/" + strings.ReplaceAll(paths[rng.Intn(len(paths))], "/", ".")
		}
		out[i] = q
	}
	return out
}

// typo applies one edit (substitute, delete or insert a letter) to one
// token of text that search.MaxDist grants at least one edit; text without
// such a token is returned unchanged. The edited token keeps at least 3
// letters, so it is itself granted an edit and still resolves.
func typo(rng *rand.Rand, text string) string {
	toks := strings.Fields(text)
	var cand []int
	for i, t := range toks {
		if search.MaxDist(t) > 0 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return text
	}
	ti := cand[rng.Intn(len(cand))]
	b := []byte(toks[ti])
	pos := rng.Intn(len(b))
	letter := byte('a' + rng.Intn(26))
	switch op := rng.Intn(3); {
	case op == 0 || op == 1 && len(b) <= 3:
		b[pos] = letter
	case op == 1:
		b = append(b[:pos], b[pos+1:]...)
	default:
		b = append(b[:pos], append([]byte{letter}, b[pos:]...)...)
	}
	toks[ti] = string(b)
	return strings.Join(toks, " ")
}

func queryEscape(s string) string { return strings.ReplaceAll(s, " ", "+") }
