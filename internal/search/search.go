package search

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"lesm/internal/core"
	"lesm/internal/par"
	"lesm/internal/store"
	"lesm/internal/textkit"
)

// Kind types an index entry: everything a snapshot knows by name falls in
// one of three namespaces.
type Kind uint8

const (
	// KindWord is a vocabulary word; ID is its vocabulary id.
	KindWord Kind = iota
	// KindPhrase is a mined phrase display; ID is its ordinal in the
	// snapshot's phrase list and Path the topic it is attached to.
	KindPhrase
	// KindAuthor is an author of the advisor network; ID is the author
	// index, Name its label when the hierarchy carries one (the id digits
	// otherwise).
	KindAuthor
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindPhrase:
		return "phrase"
	case KindAuthor:
		return "author"
	}
	return "unknown"
}

// Entry is one named thing the index can resolve.
type Entry struct {
	Kind Kind
	// Name is the display form (original case); matching happens on its
	// folded tokens.
	Name string
	// ID is the kind-scoped identifier (vocabulary id, phrase ordinal,
	// author index).
	ID int
	// Path is the owning topic path for phrases ("" otherwise).
	Path string
	// Weight is a static rank prior (phrase score; 0 for words/authors).
	Weight float64
}

// Phrase is one phrase display for Source.
type Phrase struct {
	Display string
	Path    string
	Score   float64
}

// Author is one author for Source. An empty Label indexes the author under
// its id digits only.
type Author struct {
	ID    int
	Label string
}

// Source is the name-bearing content an Index is built from. Build
// numbers the entries in slice order, so callers wanting deterministic
// indexes must hand over deterministically ordered sources
// (SourceFromSnapshot does: vocabulary order, snapshot phrase order,
// ascending author id). The index reads its entries from the slices, so
// they must not change after Build.
type Source struct {
	Words   []string
	Phrases []Phrase
	Authors []Author
}

// SourceFromSnapshot extracts everything a snapshot knows by name:
// vocabulary words, phrase displays (the roles section when present,
// otherwise each hierarchy node's phrases in pre-order; the serving tier
// keeps no other phrase list), and the advisor network's authors, labeled
// through the hierarchy's author-type entities when it carries any (an
// entity type named "author" or "person"; first display per id in
// pre-order wins). The extraction order is fully determined by the
// snapshot content, so two calls over one snapshot yield identical
// sources.
func SourceFromSnapshot(snap *store.Snapshot) Source {
	var src Source
	if snap == nil {
		return src
	}
	src.Words = snap.Vocab
	if snap.RolePhrases != nil {
		for _, tp := range snap.RolePhrases {
			for _, p := range tp.Phrases {
				src.Phrases = append(src.Phrases, Phrase{Display: p.Display, Path: tp.Path, Score: p.Score})
			}
		}
	} else if snap.Hierarchy != nil {
		snap.Hierarchy.Root.Walk(func(n *core.TopicNode) {
			for _, p := range n.Phrases {
				src.Phrases = append(src.Phrases, Phrase{Display: p.Display, Path: n.Path, Score: p.Score})
			}
		})
	}

	labels := map[int]string{}
	maxID := -1
	if h := snap.Hierarchy; h != nil {
		authorTypes := AuthorTypes(h)
		h.Root.Walk(func(n *core.TopicNode) {
			for _, x := range authorTypes {
				for _, e := range n.Entities[x] {
					if _, ok := labels[e.ID]; !ok && e.Display != "" {
						labels[e.ID] = e.Display
					}
					if e.ID > maxID {
						maxID = e.ID
					}
				}
			}
		})
	}
	if snap.Advisor != nil && snap.Advisor.Net != nil && snap.Advisor.Net.NumAuthors-1 > maxID {
		maxID = snap.Advisor.Net.NumAuthors - 1
	}
	for id := 0; id <= maxID; id++ {
		src.Authors = append(src.Authors, Author{ID: id, Label: labels[id]})
	}
	return src
}

// AuthorTypes returns the hierarchy's author-like entity types — every
// TypeID whose name folds to "author" or "person" — in ascending order.
// SourceFromSnapshot labels advisor-network authors through these types,
// and the serving tier uses the same detection to place an author on the
// hierarchy nodes it loads on.
func AuthorTypes(h *core.Hierarchy) []core.TypeID {
	if h == nil {
		return nil
	}
	var out []core.TypeID
	for x, name := range h.TypeNames {
		f := textkit.Fold(name)
		if f == "author" || f == "person" {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// FromSnapshot builds the index for one snapshot: SourceFromSnapshot
// composed with Build. This is the call the serving tier's artifact build
// makes once per generation.
func FromSnapshot(snap *store.Snapshot) *Index {
	return Build(SourceFromSnapshot(snap))
}

// Index is a tokenized inverted index with edit-distance-tolerant lookup
// over one snapshot's named content. It is immutable after Build: all
// lookups are read-only, so a server can share one Index across
// concurrent requests without locking and swap whole indexes atomically
// on snapshot reload.
//
// It is a few flat arrays. The entries are not stored: Entry reads them
// from the Source, whose words are ids [0, phraseLo), phrases
// [phraseLo, authorLo) and authors [authorLo, Entries()).
type Index struct {
	src                Source
	phraseLo, authorLo int
	// terms is the sorted distinct token dictionary. The entries
	// containing terms[i] are post[postOff[i]:postOff[i+1]], ascending and
	// deduplicated: the posting lists in compressed sparse rows.
	terms   []string
	postOff []int32
	post    []int32
	// lcp[i] is the rune length of the longest common prefix of terms[i-1]
	// and terms[i] (lcp[0] = 0): the sorted dictionary read as an implicit
	// trie, which the fuzzy walk in within descends.
	lcp []int32
	// foldedName[i] is Fold(Entry(i).Name), for exact full-name checks.
	foldedName []string
	// nameTokens[i] is entry i's distinct token count (min 1), the length
	// normalizer of the match score.
	nameTokens []int32
	// names holds every entry id sorted by (folded name, id): the entries
	// carrying one folded name are a run of it, found by binary search.
	names []int32
}

// pair is one (token, entry) occurrence Build collects before sorting.
type pair struct {
	tok string
	id  int32
}

// Build constructs the index. The construction is deterministic: the same
// Source always produces a bit-identical Index (test-gated by Checksum
// equality), because entries are numbered in Source order and the term
// dictionary is sorted. The index keeps src.
//
// Entry ranges are folded and tokenized on the pool into (token, entry)
// pairs; the pairs, sorted by (token, entry), become the dictionary and
// its posting lists, while the name table is sorted alongside. Building
// takes no map, and a word that is one whole token costs no allocation.
func Build(src Source) *Index {
	nw, np := len(src.Words), len(src.Phrases)
	n := nw + np + len(src.Authors)
	ix := &Index{
		src:        src,
		phraseLo:   nw,
		authorLo:   nw + np,
		foldedName: make([]string, n),
		nameTokens: make([]int32, n),
		names:      make([]int32, n),
	}
	chunks := make([][]pair, par.NumChunks(n))
	par.ForChunks(par.Opts{}, n, func(c, lo, hi int) {
		var one [1]string
		pairs := make([]pair, 0, hi-lo)
		for i := lo; i < hi; i++ {
			var toks []string
			ix.foldedName[i], toks = ix.fold(&one, i)
			for _, t := range toks {
				if t != "" {
					pairs = append(pairs, pair{t, int32(i)})
				}
			}
			ix.names[i] = int32(i)
		}
		chunks[c] = pairs
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	pairs := make([]pair, 0, total)
	for _, c := range chunks {
		pairs = append(pairs, c...)
	}

	folded := ix.foldedName
	sorts := [...]func(){
		func() {
			slices.SortFunc(pairs, func(a, b pair) int {
				if c := strings.Compare(a.tok, b.tok); c != 0 {
					return c
				}
				return cmp.Compare(a.id, b.id)
			})
		},
		func() {
			slices.SortFunc(ix.names, func(a, b int32) int {
				if c := strings.Compare(folded[a], folded[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		},
	}
	par.For(par.Opts{}, len(sorts), func(lo, hi int) {
		for _, run := range sorts[lo:hi] {
			run()
		}
	})

	// A token an entry names twice is an adjacent duplicate pair: drop it,
	// and count each entry's distinct tokens and the distinct terms. kept
	// compacts in place and never overtakes k, so pairs[k-1] is still the
	// sorted pair before p.
	kept, terms := pairs[:0], 0
	for k, p := range pairs {
		if k > 0 && p == pairs[k-1] {
			continue
		}
		if k == 0 || p.tok != pairs[k-1].tok {
			terms++
		}
		ix.nameTokens[p.id]++
		kept = append(kept, p)
	}
	for i, c := range ix.nameTokens {
		ix.nameTokens[i] = max(c, 1)
	}

	ix.terms = make([]string, 0, terms)
	ix.lcp = make([]int32, terms)
	ix.postOff = make([]int32, 0, terms+1)
	ix.post = make([]int32, len(kept))
	for k, p := range kept {
		if k == 0 || p.tok != kept[k-1].tok {
			if t := len(ix.terms); t > 0 {
				ix.lcp[t] = int32(sharedRunes(ix.terms[t-1], p.tok))
			}
			ix.terms = append(ix.terms, p.tok)
			ix.postOff = append(ix.postOff, int32(k))
		}
		ix.post[k] = p.id
	}
	ix.postOff = append(ix.postOff, int32(len(kept)))
	return ix
}

// fold returns entry i's folded name and its tokens. A word's tokens may
// be returned in one.
func (ix *Index) fold(one *[1]string, i int) (string, []string) {
	switch {
	case i < ix.phraseLo:
		word := ix.src.Words[i]
		fn := textkit.Fold(word)
		return fn, wordTokens(one, word, fn)
	case i < ix.authorLo:
		p := ix.src.Phrases[i-ix.phraseLo].Display
		return textkit.Fold(p), textkit.Tokenize(p)
	}
	a := ix.src.Authors[i-ix.authorLo]
	digits := strconv.Itoa(a.ID)
	name := a.Label
	if name == "" {
		name = digits
	}
	return textkit.Fold(name), append(textkit.Tokenize(a.Label), digits)
}

// wordTokens is textkit.Tokenize(word) for a word whose folded form is
// folded. Most vocabulary words are one whole token, which is their folded
// form: it is returned in one, with no tokenizing and no allocation.
func wordTokens(one *[1]string, word, folded string) []string {
	if textkit.IsToken(word) {
		one[0] = folded
		return one[:]
	}
	return textkit.Tokenize(word)
}

// sharedRunes counts the runes of the longest common prefix of a and b,
// cut back to a rune boundary of both so the prefix decodes identically.
func sharedRunes(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	for n > 0 && (n < len(a) && !utf8.RuneStart(a[n]) || n < len(b) && !utf8.RuneStart(b[n])) {
		n--
	}
	return utf8.RuneCountInString(a[:n])
}

// Entries returns the number of indexed entries.
func (ix *Index) Entries() int { return len(ix.foldedName) }

// Terms returns the size of the token dictionary.
func (ix *Index) Terms() int { return len(ix.terms) }

// Postings returns the total posting count across all terms.
func (ix *Index) Postings() int { return len(ix.post) }

// Entry returns indexed entry i, read from the Source. An author without
// a label is named by its id digits, its folded name.
func (ix *Index) Entry(i int) Entry {
	switch {
	case i < ix.phraseLo:
		return Entry{Kind: KindWord, Name: ix.src.Words[i], ID: i}
	case i < ix.authorLo:
		p := ix.src.Phrases[i-ix.phraseLo]
		return Entry{Kind: KindPhrase, Name: p.Display, ID: i - ix.phraseLo, Path: p.Path, Weight: p.Score}
	}
	a := ix.src.Authors[i-ix.authorLo]
	name := a.Label
	if name == "" {
		name = ix.foldedName[i]
	}
	return Entry{Kind: KindAuthor, Name: name, ID: a.ID}
}

// Phrases returns the first phrase entry's id and the folded names of all
// phrase entries. Build numbers entries by kind, so the phrase entries are
// the ids lo, lo+1, ... in Source order. The slice is the index's own.
func (ix *Index) Phrases() (lo int, folded []string) {
	return ix.phraseLo, ix.foldedName[ix.phraseLo:ix.authorLo:ix.authorLo]
}

// postings returns the posting list of term t, clipped to its length so
// an append cannot write into the next term's list.
func (ix *Index) postings(t int) []int32 {
	lo, hi := ix.postOff[t], ix.postOff[t+1]
	return ix.post[lo:hi:hi]
}

// WithToken returns the ascending ids of the entries whose name holds the
// folded token. The slice is the index's own.
func (ix *Index) WithToken(token string) []int32 {
	if i := sort.SearchStrings(ix.terms, token); i < len(ix.terms) && ix.terms[i] == token {
		return ix.postings(i)
	}
	return nil
}

// WithName returns the ascending ids of the entries whose folded name is
// Fold(name). The slice is the index's own.
func (ix *Index) WithName(name string) []int32 { return ix.named(textkit.Fold(name)) }

// named returns the run of the name table whose folded name is folded,
// clipped like a posting list.
func (ix *Index) named(folded string) []int32 {
	names, fn := ix.names, ix.foldedName
	lo := sort.Search(len(names), func(i int) bool { return fn[names[i]] >= folded })
	hi := lo
	for hi < len(names) && fn[names[hi]] == folded {
		hi++
	}
	if lo == hi {
		return nil
	}
	return names[lo:hi:hi]
}

// Checksum is an FNV-1a digest over the index's canonical serialization
// (entries in id order, then the sorted term dictionary with its posting
// lists). Two Builds of the same snapshot must agree bit for bit; the
// determinism tests compare this digest across builds.
func (ix *Index) Checksum() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	num := func(v int64) {
		buf = strconv.AppendInt(buf[:0], v, 10)
		buf = append(buf, 0)
		h.Write(buf)
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num(int64(ix.Entries()))
	for i := range ix.foldedName {
		e := ix.Entry(i)
		num(int64(e.Kind))
		str(e.Name)
		str(ix.foldedName[i])
		num(int64(e.ID))
		str(e.Path)
		buf = strconv.AppendFloat(buf[:0], e.Weight, 'g', -1, 64)
		buf = append(buf, 0)
		h.Write(buf)
	}
	num(int64(len(ix.terms)))
	for i, t := range ix.terms {
		str(t)
		for _, p := range ix.postings(i) {
			num(int64(p))
		}
	}
	return h.Sum64()
}

// MaxDist is the edit-distance bound fuzzy matching grants a query token:
// the "~2" pattern of fulltext retrievers, scaled down for short tokens
// where a couple of edits would match most of the dictionary — exact only
// below 3 runes, one edit up to 5, two beyond.
func MaxDist(token string) int {
	n := 0
	for range token {
		n++
	}
	switch {
	case n < 3:
		return 0
	case n <= 5:
		return 1
	default:
		return 2
	}
}

// maxExpansions caps how many dictionary terms one query token may expand
// to through fuzzy matching; expansions are taken closest-first (then
// highest document frequency, then lexicographic), so the cap only drops
// the least promising variants.
const maxExpansions = 16

// Hit is one ranked search result.
type Hit struct {
	Entry
	// Score is the match score in (0, 2]: matched-token mass averaged over
	// the query's tokens (an edit-distance-d token match contributes
	// 1/(1+d)), length-normalized by how much of the entry's own name the
	// query covers (an entry whose whole name matched outranks one that
	// merely contains the tokens), plus 1 when the folded full name equals
	// the folded query.
	Score float64
	// Distance is the summed edit distance of the matched query tokens —
	// 0 for a fully exact match.
	Distance int
	// Matched of Of query tokens found this entry.
	Matched, Of int
}

// termMatch is one dictionary term matched for a query token.
type termMatch struct {
	term int // index into ix.terms
	dist int
}

// expand finds the dictionary terms matching one query token: the exact
// term when present, else every term within MaxDist(token) edits, capped
// at maxExpansions closest-first.
func (ix *Index) expand(token string) []termMatch {
	i := sort.SearchStrings(ix.terms, token)
	if i < len(ix.terms) && ix.terms[i] == token {
		return []termMatch{{term: i, dist: 0}}
	}
	max := MaxDist(token)
	if max == 0 {
		return nil
	}
	return ix.rank(ix.within([]rune(token), max))
}

// rank orders fuzzy matches closest first, then by descending document
// frequency, then lexicographically, and keeps the first maxExpansions.
func (ix *Index) rank(out []termMatch) []termMatch {
	sort.Slice(out, func(a, b int) bool {
		if out[a].dist != out[b].dist {
			return out[a].dist < out[b].dist
		}
		da, db := len(ix.postings(out[a].term)), len(ix.postings(out[b].term))
		if da != db {
			return da > db // prefer the better-attested term
		}
		return ix.terms[out[a].term] < ix.terms[out[b].term]
	})
	if len(out) > maxExpansions {
		out = out[:maxExpansions]
	}
	return out
}

// within returns every dictionary term within max edits of the query
// runes qr, in dictionary order, with its exact edit distance. max must
// be below 32.
//
// It walks the sorted dictionary depth first as an implicit trie. Row d of
// the Levenshtein table (the first d runes of the current term against the
// query) depends only on those d runes, so a term reuses the rows of the
// prefix it shares with the previous term (lcp) and computes rows only for
// the rest. A row with no cell within max kills its prefix: every
// following term that shares it is skipped without computing a row.
//
// A row keeps only the band of 2·max+1 cells around the diagonal
// (Ukkonen's cut-off: cells farther out are at least max+1), as max+1
// bitmasks over the band, level e marking the cells within e edits. The
// next row follows in a few word operations per level (the Wu–Manber
// recurrence, confined to the band). Rows deeper than len(qr)+max have an
// empty band and always prune, so the row stack never exceeds
// len(qr)+max+1 rows, and it only grows as deep as the terms reach: its
// memory is bounded by the shorter of the query and the longest term.
func (ix *Index) within(qr []rune, max int) []termMatch {
	n, w, k := len(qr), 2*max+1, max+1
	// Row d occupies rows[d*k : d*k+k]; bit o of its level e is set when
	// the path's first d runes are within e edits of the query's first
	// d-max+o. offs[d] is the byte offset in the current term after d runes.
	depth := min(n+max+1, 32)
	rows := make([]uint64, k, depth*k)
	offs := make([]int, 1, depth)
	for e := range rows {
		// Row 0: cell o stands for the query's first o-max runes, at that
		// distance from the empty prefix.
		rows[e] = (1<<(min(e, n)+1) - 1) << max
	}
	m := newMatcher(qr, w)
	terms, lcp := ix.terms, ix.lcp
	var out []termMatch
	for t := 0; t < len(terms); {
		term := terms[t]
		d := int(lcp[t])
		rows, offs = rows[:(d+1)*k], offs[:d+1]
		dead := false
		for b := offs[d]; b < len(term); {
			r, size := runeAt(term, b)
			b += size
			d++
			if d > n+max {
				dead = true // row d's band lies past the query's end
				break
			}
			rows = slices.Grow(rows, k)[:(d+1)*k]
			offs = append(offs, b)
			eq, valid := m.eq(r, d-max)
			if !bandRow(rows[(d-1)*k:d*k], rows[d*k:(d+1)*k], eq, valid) {
				dead = true
				break
			}
		}
		if !dead {
			if o := n - d + max; o >= 0 && o < w {
				for e, level := range rows[d*k : (d+1)*k] {
					if level>>o&1 != 0 {
						out = append(out, termMatch{term: t, dist: e})
						break
					}
				}
			}
			t++
			continue
		}
		// Every following term sharing the first d runes is dead too, and so
		// is every sibling whose d-th rune equals none of the query runes
		// row d compares: its row d, having no matching cell, is a subset
		// of the dead one. Both are skipped with their subtrees.
		for {
			for t++; t < len(lcp) && int(lcp[t]) >= d; t++ {
			}
			if t == len(lcp) || int(lcp[t]) != d-1 {
				break
			}
			r, _ := runeAt(terms[t], offs[d-1])
			if eq, _ := m.eq(r, d-max); eq != 0 {
				break
			}
		}
	}
	return out
}

// runeAt decodes the rune of s at byte offset b and its size.
func runeAt(s string, b int) (rune, int) {
	if c := s[b]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[b:])
}

// matcher answers, for one query, which cells of a band compare a term
// rune with an equal query rune.
type matcher struct {
	qr []rune
	w  int
	// ascii[c] has bit j set when qr[j] == c, for queries of at most 64
	// runes (nil otherwise).
	ascii *[utf8.RuneSelf]uint64
}

func newMatcher(qr []rune, w int) matcher {
	m := matcher{qr: qr, w: w}
	if len(qr) <= 64 {
		m.ascii = new([utf8.RuneSelf]uint64)
		for j, c := range qr {
			if c < utf8.RuneSelf {
				m.ascii[c] |= 1 << j
			}
		}
	}
	return m
}

// eq returns the band cells whose query rune equals r (eq) and the band
// cells inside the query (valid), for the band whose cell o stands for the
// query's first lo+o runes.
func (m matcher) eq(r rune, lo int) (eq, valid uint64) {
	oLo, oHi := 0, m.w-1
	if lo < 0 {
		oLo = -lo
	}
	if n := len(m.qr); lo+oHi > n {
		oHi = n - lo
	}
	valid = (1<<(oHi+1) - 1) &^ (1<<oLo - 1)
	if m.ascii != nil && r < utf8.RuneSelf {
		// Cell o compares query rune lo+o-1.
		if s := lo - 1; s >= 0 {
			return m.ascii[r] >> s & valid, valid
		}
		return m.ascii[r] << (1 - lo) & valid, valid
	}
	for o := oLo; o <= oHi; o++ {
		if j := lo + o; j > 0 && m.qr[j-1] == r {
			eq |= 1 << o
		}
	}
	return eq, valid
}

// bandRow fills cur, the row after a term rune, from prev, the row before
// it, and reports whether any cell of cur is within max edits (its top
// level is not empty). Bit o of a level of cur stands for the query's
// first lo+o runes, bit o of prev's for its first lo+o-1; eq marks the
// cells whose query rune equals the term rune and valid the cells inside
// the query.
func bandRow(prev, cur []uint64, eq, valid uint64) bool {
	var below, left uint64 // level e-1 of prev and of cur
	for e := range cur {
		// Within e edits by a match on the diagonal, or within e-1 by a
		// substitution on the diagonal, by skipping the term's rune (the
		// cell above) or by skipping the query's rune (the cell left).
		c := (prev[e]&eq | below | below>>1 | left<<1) & valid
		below, left = prev[e], c
		cur[e] = c
	}
	return left != 0
}

// Search matches q against the index and returns up to limit hits ranked
// by descending score (ties: weight, kind, name, path, id — all
// deterministic). A limit <= 0 means no cap. Results are a pure function
// of (index, q, limit).
func (ix *Index) Search(q string, limit int) []Hit {
	tokens := dedupe(textkit.Tokenize(q))
	if len(tokens) == 0 {
		return nil
	}
	type acc struct {
		score    float64
		dist     int
		matched  int
		lastTok  int
		bestTokW float64 // best weight for the current token
		bestTokD int
	}
	accs := map[int32]*acc{}
	for qi, tok := range tokens {
		for _, m := range ix.expand(tok) {
			w := 1.0 / float64(1+m.dist)
			for _, e := range ix.postings(m.term) {
				a := accs[e]
				if a == nil {
					a = &acc{lastTok: -1}
					accs[e] = a
				}
				if a.lastTok != qi {
					// Commit nothing yet; start this token's best-match slot.
					a.lastTok = qi
					a.matched++
					a.bestTokW, a.bestTokD = w, m.dist
					a.score += w
					a.dist += m.dist
				} else if w > a.bestTokW {
					// A closer term for the same query token: replace.
					a.score += w - a.bestTokW
					a.dist += m.dist - a.bestTokD
					a.bestTokW, a.bestTokD = w, m.dist
				}
			}
		}
	}
	if len(accs) == 0 {
		return nil
	}
	fq := textkit.Fold(q)
	hits := make([]Hit, 0, len(accs))
	for e, a := range accs {
		// Length normalization: scale by name coverage so a query matching
		// an entry's whole name outranks a longer entry that merely
		// contains the tokens. Half the weight is containment, half
		// coverage — containment alone still scores, so phrases carrying a
		// queried word remain findable, just below the word itself.
		cov := float64(a.matched) / float64(ix.nameTokens[e])
		h := Hit{
			Entry:    ix.Entry(int(e)),
			Score:    a.score / float64(len(tokens)) * (0.5 + 0.5*cov),
			Distance: a.dist,
			Matched:  a.matched,
			Of:       len(tokens),
		}
		if ix.foldedName[e] == fq {
			h.Score++
		}
		hits = append(hits, h)
	}
	sort.Slice(hits, func(a, b int) bool { return hitLess(hits[a], hits[b]) })
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// hitLess is Search's ranking: descending score, then descending weight,
// then kind, name, path and id ascending.
func hitLess(ha, hb Hit) bool {
	if ha.Score != hb.Score {
		return ha.Score > hb.Score
	}
	if ha.Weight != hb.Weight {
		return ha.Weight > hb.Weight
	}
	if ha.Kind != hb.Kind {
		return ha.Kind < hb.Kind
	}
	if ha.Name != hb.Name {
		return ha.Name < hb.Name
	}
	if ha.Path != hb.Path {
		return ha.Path < hb.Path
	}
	return ha.ID < hb.ID
}

// Resolve maps a free-form name to the entity it most plausibly denotes:
// the best-ranked hit that matched every token of the name (exact first,
// then ascending edit distance — so "informatoin" resolves to
// "information" and "jon smith" to "john smith"). kinds, when non-empty,
// restricts resolution to those entry kinds. The boolean reports whether
// any full-coverage hit existed.
func (ix *Index) Resolve(name string, kinds ...Kind) (Hit, bool) {
	// Exact folded-name lookup first: a binary search of the name table,
	// immune to the expansion cap.
	if ids := ix.named(textkit.Fold(name)); len(ids) > 0 {
		for _, id := range ids {
			e := ix.Entry(int(id))
			if kindAllowed(e.Kind, kinds) {
				toks := len(dedupe(textkit.Tokenize(name)))
				return Hit{Entry: e, Score: 2, Matched: toks, Of: toks}, true
			}
		}
	}
	// Among full-coverage hits, prefer one whose own name has exactly the
	// query's token count — "procesng" denotes the word "processing", not
	// a higher-weighted phrase that merely contains it. A covering hit
	// with extra name tokens is the fallback when no aligned one exists.
	var fallback Hit
	haveFallback := false
	for _, h := range ix.Search(name, 0) {
		if h.Matched != h.Of || !kindAllowed(h.Kind, kinds) {
			continue
		}
		if len(dedupe(textkit.Tokenize(h.Name))) == h.Of {
			return h, true
		}
		if !haveFallback {
			fallback, haveFallback = h, true
		}
	}
	return fallback, haveFallback
}

func kindAllowed(k Kind, kinds []Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

func dedupe(tokens []string) []string {
	out := tokens[:0]
	seen := map[string]bool{}
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
