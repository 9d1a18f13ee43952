package synth

import (
	"math/rand"
	"strings"

	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/linalg"
	"lesm/internal/textkit"
)

// Dataset is a generated text-attached heterogeneous network: an id-encoded
// corpus, the per-document entity attachments, and the full generation
// ground truth.
type Dataset struct {
	Corpus    *textkit.Corpus
	Docs      []hin.DocRecord
	TypeNames []string
	NumNodes  []int
	// Names[x] holds display names of type-x entities (nil for terms, which
	// resolve through Corpus.Vocab).
	Names [][]string
	Truth *Truth
}

// Truth records how the dataset was generated: the topic tree, per-document
// leaf and top-level labels, and entity-to-topic affinities. Oracle judges
// (internal/eval) use it in place of the paper's human annotators.
type Truth struct {
	Root *TopicSpec
	// Nodes is Root.Flatten(); LeafIdx are indices into Nodes of the leaves.
	Nodes   []*TopicSpec
	LeafIdx []int
	// DocLeaf[d] is the index (into LeafIdx) of document d's primary leaf
	// topic; DocLabel[d] is the index of its top-level topic.
	DocLeaf  []int
	DocLabel []int
	// wordAff maps a word to its distribution over leaves.
	wordAff map[string][]float64
	// phraseAff maps a full phrase string to its distribution over leaves.
	phraseAff map[string][]float64
	// EntityAff[x][i] is entity i of type x's distribution over leaves
	// (nil slice for the term type).
	EntityAff [][][]float64
}

// NumLeaves returns the number of ground-truth leaf topics.
func (t *Truth) NumLeaves() int { return len(t.LeafIdx) }

// LeafName returns the name of ground-truth leaf l.
func (t *Truth) LeafName(l int) string { return t.Nodes[t.LeafIdx[l]].Name }

// WordAffinity returns the generator's distribution over leaf topics for a
// word; unknown words get a uniform distribution.
func (t *Truth) WordAffinity(word string) []float64 {
	if a, ok := t.wordAff[word]; ok {
		return a
	}
	u := make([]float64, t.NumLeaves())
	linalg.SumTo1(u)
	return u
}

// PhraseAffinity returns the distribution over leaf topics for a phrase:
// the exact generator phrase affinity when known, otherwise the average of
// the word affinities.
func (t *Truth) PhraseAffinity(phrase string) []float64 {
	if a, ok := t.phraseAff[phrase]; ok {
		return a
	}
	words := strings.Fields(phrase)
	acc := make([]float64, t.NumLeaves())
	for _, w := range words {
		linalg.Axpy(1, t.WordAffinity(w), acc)
	}
	linalg.SumTo1(acc)
	return acc
}

// IsGeneratorPhrase reports whether the exact phrase appears in the ground
// truth topic tree.
func (t *Truth) IsGeneratorPhrase(phrase string) bool {
	_, ok := t.phraseAff[phrase]
	return ok
}

// EntityAffinity returns entity i of type x's distribution over leaf topics.
func (t *Truth) EntityAffinity(x core.TypeID, i int) []float64 {
	if int(x) < len(t.EntityAff) && t.EntityAff[x] != nil && t.EntityAff[x][i] != nil {
		return t.EntityAff[x][i]
	}
	u := make([]float64, t.NumLeaves())
	linalg.SumTo1(u)
	return u
}

// leafsUnder returns the indices (into LeafIdx) of leaves under node spec.
func (t *Truth) leafsUnder(spec *TopicSpec) []int {
	want := map[*TopicSpec]bool{}
	for _, l := range spec.Leaves() {
		want[l] = true
	}
	var out []int
	for li, ni := range t.LeafIdx {
		if want[t.Nodes[ni]] {
			out = append(out, li)
		}
	}
	return out
}

// newTruth indexes a spec tree and precomputes word and phrase affinities.
func newTruth(root *TopicSpec) *Truth {
	t := &Truth{Root: root, Nodes: root.Flatten()}
	leafSet := map[*TopicSpec]int{}
	for ni, n := range t.Nodes {
		if len(n.Children) == 0 {
			leafSet[n] = len(t.LeafIdx)
			t.LeafIdx = append(t.LeafIdx, ni)
		}
	}
	nl := len(t.LeafIdx)
	t.wordAff = map[string][]float64{}
	t.phraseAff = map[string][]float64{}
	addMass := func(m map[string][]float64, key string, leaves []int, w float64) {
		a := m[key]
		if a == nil {
			a = make([]float64, nl)
			m[key] = a
		}
		for _, l := range leaves {
			a[l] += w / float64(len(leaves))
		}
	}
	for _, n := range t.Nodes {
		leaves := t.leafsUnder(n)
		for _, w := range n.allWords() {
			addMass(t.wordAff, w, leaves, 1)
		}
		for _, p := range n.Phrases {
			addMass(t.phraseAff, p, leaves, 1)
		}
	}
	for _, a := range t.wordAff {
		linalg.SumTo1(a)
	}
	for _, a := range t.phraseAff {
		linalg.SumTo1(a)
	}
	return t
}

// emitConfig controls token emission for one document.
type emitConfig struct {
	minLen, maxLen int
	bgProb         float64 // probability of a background unigram
	phraseProb     float64 // probability (after bg) of emitting a phrase
	parentProb     float64 // probability a phrase/unigram comes from an ancestor
}

// emit generates tokens for a document whose primary topic is the leaf spec,
// with ancestors providing general vocabulary.
func emit(rng *rand.Rand, leaf *TopicSpec, ancestors []*TopicSpec, cfg emitConfig) []string {
	target := cfg.minLen
	if cfg.maxLen > cfg.minLen {
		target += rng.Intn(cfg.maxLen - cfg.minLen + 1)
	}
	var out []string
	pickNode := func() *TopicSpec {
		if len(ancestors) > 0 && rng.Float64() < cfg.parentProb {
			return ancestors[rng.Intn(len(ancestors))]
		}
		return leaf
	}
	for len(out) < target {
		r := rng.Float64()
		switch {
		case r < cfg.bgProb:
			out = append(out, backgroundUnigrams[rng.Intn(len(backgroundUnigrams))])
		case r < cfg.bgProb+cfg.phraseProb:
			n := pickNode()
			if len(n.Phrases) == 0 {
				n = leaf
			}
			if len(n.Phrases) == 0 {
				out = append(out, n.Unigrams[rng.Intn(len(n.Unigrams))])
				continue
			}
			p := n.Phrases[rng.Intn(len(n.Phrases))]
			out = append(out, strings.Fields(p)...)
		default:
			n := pickNode()
			if len(n.Unigrams) == 0 {
				n = leaf
			}
			out = append(out, n.Unigrams[rng.Intn(len(n.Unigrams))])
		}
	}
	return out
}

// CollapsedNetwork builds the heterogeneous collapsed network (Example 3.1)
// for the dataset, attaching display names. skipSameVenue drops venue-venue
// links (papers have one venue).
func (d *Dataset) CollapsedNetwork(window int) *hin.Network {
	var skips []hin.TypePair
	for x := 1; x < len(d.TypeNames); x++ {
		if d.TypeNames[x] == "venue" {
			skips = append(skips, hin.TypePair{X: core.TypeID(x), Y: core.TypeID(x)})
		}
	}
	n := hin.BuildCollapsed(d.TypeNames, d.NumNodes, d.Docs, hin.BuildOptions{Window: window, SkipPairs: skips})
	for x := range d.Names {
		if d.Names[x] != nil {
			n.Names[x] = d.Names[x]
		}
	}
	if n.Names[0] == nil {
		n.Names[0] = d.Corpus.Vocab.Words()
	}
	return n
}

// DBLPConfig parameterizes the DBLP-like bibliographic generator.
type DBLPConfig struct {
	NumPapers  int
	NumAuthors int
	Seed       int64
	// TitleMin/TitleMax bound title token counts.
	TitleMin, TitleMax int
	// VenueNoise is the probability a paper's area ignores its venue.
	VenueNoise float64
	// AreaOnly restricts generation to a single top-level area, identified
	// by 1-based index (0 = all areas); AreaOnly=1 is the "Database area"
	// dataset of Table 3.2.
	AreaOnly int
}

func (c DBLPConfig) withDefaults() DBLPConfig {
	if c.NumPapers == 0 {
		c.NumPapers = 6000
	}
	if c.NumAuthors == 0 {
		c.NumAuthors = c.NumPapers / 4
	}
	if c.TitleMin == 0 {
		c.TitleMin = 6
	}
	if c.TitleMax == 0 {
		c.TitleMax = 11
	}
	if c.VenueNoise == 0 {
		c.VenueNoise = 0.05
	}
	return c
}

// DBLP generates a bibliographic text-attached heterogeneous network in the
// image of the paper's 20-conference DBLP dataset: term/author/venue node
// types and five link types.
func DBLP(cfg DBLPConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	spec := dblpSpec()
	if cfg.AreaOnly > 0 {
		area := spec.Children[cfg.AreaOnly-1]
		spec = &TopicSpec{Name: spec.Name, Phrases: spec.Phrases, Unigrams: spec.Unigrams,
			Children: []*TopicSpec{area}}
	}
	truth := newTruth(spec)
	nl := truth.NumLeaves()

	// Venues: flatten the per-area lists (restricted if AreaOnly).
	type venueInfo struct {
		name string
		area int
	}
	var venues []venueInfo
	for ai := range spec.Children {
		srcArea := ai
		if cfg.AreaOnly > 0 {
			srcArea = cfg.AreaOnly - 1
		}
		for _, v := range dblpVenues[srcArea] {
			venues = append(venues, venueInfo{v, ai})
		}
	}

	// Authors: primary leaf by round-robin with Zipf-like productivity.
	authorNames := makeNames(cfg.NumAuthors)
	authorLeaf := make([]int, cfg.NumAuthors)
	authorWeight := make([]float64, cfg.NumAuthors)
	leafAuthors := make([][]int, nl)
	for a := 0; a < cfg.NumAuthors; a++ {
		l := a % nl
		authorLeaf[a] = l
		leafAuthors[l] = append(leafAuthors[l], a)
		rank := a/nl + 1
		authorWeight[a] = 1 / float64(rank)
	}

	// Leaves grouped by top-level area for venue-driven topic choice.
	areaLeaves := make([][]int, len(spec.Children))
	for ai, areaSpec := range spec.Children {
		areaLeaves[ai] = truth.leafsUnder(areaSpec)
	}

	// Ancestor chain per leaf (area + root).
	leafAncestors := make([][]*TopicSpec, nl)
	leafSpecOf := make([]*TopicSpec, nl)
	for li, ni := range truth.LeafIdx {
		leafSpecOf[li] = truth.Nodes[ni]
	}
	for ai, areaSpec := range spec.Children {
		for _, li := range areaLeaves[ai] {
			if leafSpecOf[li] == areaSpec {
				leafAncestors[li] = []*TopicSpec{spec}
			} else {
				leafAncestors[li] = []*TopicSpec{areaSpec, spec}
			}
		}
	}

	ecfg := emitConfig{minLen: cfg.TitleMin, maxLen: cfg.TitleMax, bgProb: 0.18, phraseProb: 0.55, parentProb: 0.25}
	ds := &Dataset{
		Corpus:    textkit.NewCorpus(),
		TypeNames: []string{"term", "author", "venue"},
		Names:     [][]string{nil, authorNames, nil},
		Truth:     truth,
	}
	vnames := make([]string, len(venues))
	for i, v := range venues {
		vnames[i] = v.name
	}
	ds.Names[2] = vnames

	sampleAuthors := func(leaf int, k int) []int {
		pool := leafAuthors[leaf]
		if len(pool) == 0 {
			return nil
		}
		total := 0.0
		for _, a := range pool {
			total += authorWeight[a]
		}
		chosen := map[int]bool{}
		var out []int
		for len(out) < k && len(out) < len(pool) {
			r := rng.Float64() * total
			for _, a := range pool {
				r -= authorWeight[a]
				if r <= 0 {
					if !chosen[a] {
						chosen[a] = true
						out = append(out, a)
					}
					break
				}
			}
		}
		return out
	}

	for p := 0; p < cfg.NumPapers; p++ {
		vi := rng.Intn(len(venues))
		area := venues[vi].area
		if rng.Float64() < cfg.VenueNoise {
			area = rng.Intn(len(spec.Children))
		}
		leaf := areaLeaves[area][rng.Intn(len(areaLeaves[area]))]
		tokens := emit(rng, leafSpecOf[leaf], leafAncestors[leaf], ecfg)
		ds.Corpus.AddTokens(tokens)
		na := 2 + rng.Intn(3)
		authors := sampleAuthors(leaf, na)
		doc := hin.DocRecord{
			Tokens:   ds.Corpus.Docs[len(ds.Corpus.Docs)-1].Tokens,
			Entities: map[core.TypeID][]int{1: authors, 2: {vi}},
		}
		ds.Docs = append(ds.Docs, doc)
		truth.DocLeaf = append(truth.DocLeaf, leaf)
		truth.DocLabel = append(truth.DocLabel, area)
	}
	ds.NumNodes = []int{ds.Corpus.Vocab.Size(), cfg.NumAuthors, len(venues)}

	// Entity affinities.
	truth.EntityAff = make([][][]float64, 3)
	truth.EntityAff[1] = make([][]float64, cfg.NumAuthors)
	for a := 0; a < cfg.NumAuthors; a++ {
		aff := make([]float64, nl)
		aff[authorLeaf[a]] = 1
		truth.EntityAff[1][a] = aff
	}
	truth.EntityAff[2] = make([][]float64, len(venues))
	for vi, v := range venues {
		aff := make([]float64, nl)
		for _, l := range areaLeaves[v.area] {
			aff[l] = 1
		}
		linalg.SumTo1(aff)
		truth.EntityAff[2][vi] = aff
	}
	return ds
}

// NewsConfig parameterizes the NEWS-like generator.
type NewsConfig struct {
	NumArticles int
	Seed        int64
	// Stories restricts generation to the first n stories (0 = all 16); the
	// paper's "4 topics subset" uses 4 (Bill Clinton, Boston Marathon,
	// Earthquake, Egypt — the first four in our list).
	Stories int
	// ExtractionNoise is the probability an attached entity comes from the
	// wrong story, simulating the information-extraction noise the paper
	// observes in NEWS entity links.
	ExtractionNoise float64
}

func (c NewsConfig) withDefaults() NewsConfig {
	if c.NumArticles == 0 {
		c.NumArticles = 6000
	}
	if c.Stories == 0 {
		c.Stories = len(newsStories)
	}
	if c.ExtractionNoise == 0 {
		c.ExtractionNoise = 0.10
	}
	return c
}

// News generates a news text-attached heterogeneous network with term,
// person and location node types (six link types).
func News(cfg NewsConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	stories := newsStories[:cfg.Stories]
	full := newsSpec()
	spec := &TopicSpec{Name: full.Name, Unigrams: full.Unigrams, Children: full.Children[:cfg.Stories]}
	truth := newTruth(spec)
	nl := truth.NumLeaves()

	// Entity pools: persons and locations, per story.
	var personNames, placeNames []string
	personStory := map[int]int{}
	placeStory := map[int]int{}
	personsByStory := make([][]int, len(stories))
	placesByStory := make([][]int, len(stories))
	seenPerson := map[string]int{}
	seenPlace := map[string]int{}
	for si, s := range stories {
		for _, p := range s.Persons {
			id, ok := seenPerson[p]
			if !ok {
				id = len(personNames)
				personNames = append(personNames, p)
				seenPerson[p] = id
				personStory[id] = si
			}
			personsByStory[si] = append(personsByStory[si], id)
		}
		for _, p := range s.Places {
			id, ok := seenPlace[p]
			if !ok {
				id = len(placeNames)
				placeNames = append(placeNames, p)
				seenPlace[p] = id
				placeStory[id] = si
			}
			placesByStory[si] = append(placesByStory[si], id)
		}
	}

	storyLeaves := make([][]int, len(stories))
	for si, storySpec := range spec.Children {
		storyLeaves[si] = truth.leafsUnder(storySpec)
	}
	leafSpecOf := make([]*TopicSpec, nl)
	leafStory := make([]int, nl)
	leafAncestors := make([][]*TopicSpec, nl)
	for li, ni := range truth.LeafIdx {
		leafSpecOf[li] = truth.Nodes[ni]
	}
	for si, storySpec := range spec.Children {
		for _, li := range storyLeaves[si] {
			leafStory[li] = si
			leafAncestors[li] = []*TopicSpec{storySpec, spec}
		}
	}

	ecfg := emitConfig{minLen: 7, maxLen: 13, bgProb: 0.15, phraseProb: 0.5, parentProb: 0.3}
	ds := &Dataset{
		Corpus:    textkit.NewCorpus(),
		TypeNames: []string{"term", "person", "location"},
		Names:     [][]string{nil, personNames, placeNames},
		Truth:     truth,
	}
	pickEntities := func(pool []int, all []string, k int) []int {
		var out []int
		seen := map[int]bool{}
		for len(out) < k {
			var id int
			if rng.Float64() < cfg.ExtractionNoise {
				id = rng.Intn(len(all))
			} else {
				id = pool[rng.Intn(len(pool))]
			}
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	for a := 0; a < cfg.NumArticles; a++ {
		si := rng.Intn(len(stories))
		leaf := storyLeaves[si][rng.Intn(len(storyLeaves[si]))]
		tokens := emit(rng, leafSpecOf[leaf], leafAncestors[leaf], ecfg)
		ds.Corpus.AddTokens(tokens)
		doc := hin.DocRecord{
			Tokens: ds.Corpus.Docs[len(ds.Corpus.Docs)-1].Tokens,
			Entities: map[core.TypeID][]int{
				1: pickEntities(personsByStory[si], personNames, 1+rng.Intn(3)),
				2: pickEntities(placesByStory[si], placeNames, 1+rng.Intn(3)),
			},
		}
		ds.Docs = append(ds.Docs, doc)
		truth.DocLeaf = append(truth.DocLeaf, leaf)
		truth.DocLabel = append(truth.DocLabel, si)
	}
	ds.NumNodes = []int{ds.Corpus.Vocab.Size(), len(personNames), len(placeNames)}

	truth.EntityAff = make([][][]float64, 3)
	truth.EntityAff[1] = make([][]float64, len(personNames))
	for id := range personNames {
		aff := make([]float64, nl)
		for _, l := range storyLeaves[personStory[id]] {
			aff[l] = 1
		}
		linalg.SumTo1(aff)
		truth.EntityAff[1][id] = aff
	}
	truth.EntityAff[2] = make([][]float64, len(placeNames))
	for id := range placeNames {
		aff := make([]float64, nl)
		for _, l := range storyLeaves[placeStory[id]] {
			aff[l] = 1
		}
		linalg.SumTo1(aff)
		truth.EntityAff[2][id] = aff
	}
	return ds
}

// TextConfig parameterizes the plain-text generators (arXiv titles and the
// long-text corpora of Tables 4.6-4.8).
type TextConfig struct {
	NumDocs        int
	Seed           int64
	DocMin, DocMax int
}

func (c TextConfig) withDefaults(minLen, maxLen, docs int) TextConfig {
	if c.NumDocs == 0 {
		c.NumDocs = docs
	}
	if c.DocMin == 0 {
		c.DocMin = minLen
	}
	if c.DocMax == 0 {
		c.DocMax = maxLen
	}
	return c
}

// textDataset emits a flat-topic labeled corpus from the children of spec.
func textDataset(spec *TopicSpec, cfg TextConfig, bg, phrase float64) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := newTruth(spec)
	nl := truth.NumLeaves()
	leafSpecOf := make([]*TopicSpec, nl)
	leafAncestors := make([][]*TopicSpec, nl)
	leafLabel := make([]int, nl)
	for li, ni := range truth.LeafIdx {
		leafSpecOf[li] = truth.Nodes[ni]
	}
	for ci, child := range spec.Children {
		for _, li := range truth.leafsUnder(child) {
			leafLabel[li] = ci
			if leafSpecOf[li] == child {
				leafAncestors[li] = []*TopicSpec{spec}
			} else {
				leafAncestors[li] = []*TopicSpec{child, spec}
			}
		}
	}
	ecfg := emitConfig{minLen: cfg.DocMin, maxLen: cfg.DocMax, bgProb: bg, phraseProb: phrase, parentProb: 0.15}
	ds := &Dataset{
		Corpus:    textkit.NewCorpus(),
		TypeNames: []string{"term"},
		Names:     [][]string{nil},
		Truth:     truth,
	}
	for d := 0; d < cfg.NumDocs; d++ {
		leaf := rng.Intn(nl)
		tokens := emit(rng, leafSpecOf[leaf], leafAncestors[leaf], ecfg)
		ds.Corpus.AddTokens(tokens)
		ds.Docs = append(ds.Docs, hin.DocRecord{Tokens: ds.Corpus.Docs[len(ds.Corpus.Docs)-1].Tokens})
		truth.DocLeaf = append(truth.DocLeaf, leaf)
		truth.DocLabel = append(truth.DocLabel, leafLabel[leaf])
	}
	ds.NumNodes = []int{ds.Corpus.Vocab.Size()}
	truth.EntityAff = make([][][]float64, 1)
	return ds
}

// Arxiv generates the labeled 5-subfield physics title corpus (§4.4.1).
func Arxiv(cfg TextConfig) *Dataset {
	return textDataset(arxivSpec(), cfg.withDefaults(6, 11, 4000), 0.18, 0.5)
}

// LongTextDomain selects the long-text corpus flavor.
type LongTextDomain int

// Long-text domains replicated from the paper's scalability evaluation.
const (
	DomainAbstracts LongTextDomain = iota // DBLP abstracts (Table 4.6)
	DomainAPNews                          // AP news articles (Table 4.7)
	DomainYelp                            // Yelp reviews (Table 4.8)
)

// LongText generates a long-document corpus for the given domain.
func LongText(domain LongTextDomain, cfg TextConfig) *Dataset {
	switch domain {
	case DomainAPNews:
		return textDataset(apNewsSpec(), cfg.withDefaults(40, 90, 1500), 0.3, 0.4)
	case DomainYelp:
		return textDataset(yelpSpec(), cfg.withDefaults(30, 70, 2000), 0.35, 0.4)
	default:
		return textDataset(abstractsSpec(), cfg.withDefaults(40, 100, 1500), 0.3, 0.4)
	}
}

// DBLPTitles generates a text-only CS title corpus (the "DBLP titles"
// dataset of Section 4.4.2) using the full CS topic tree.
func DBLPTitles(cfg TextConfig) *Dataset {
	return textDataset(dblpSpec(), cfg.withDefaults(6, 11, 5000), 0.18, 0.55)
}
