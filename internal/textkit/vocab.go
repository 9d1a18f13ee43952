package textkit

import "sort"

// Vocabulary is a bidirectional mapping between word strings and dense
// integer ids. The zero value is ready to use.
type Vocabulary struct {
	ids   map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: map[string]int{}}
}

// VocabularyFromWords rebuilds a vocabulary from its id-ordered word list
// (the persisted form): word i gets id i. Duplicate words keep the first
// id, matching Add's semantics, so VocabularyFromWords(v.Words()) always
// reproduces v.
func VocabularyFromWords(words []string) *Vocabulary {
	v := &Vocabulary{ids: make(map[string]int, len(words)), words: make([]string, 0, len(words))}
	for _, w := range words {
		v.words = append(v.words, w)
		if _, ok := v.ids[w]; !ok {
			v.ids[w] = len(v.words) - 1
		}
	}
	return v
}

// Add returns the id for w, assigning the next free id if w is new.
func (v *Vocabulary) Add(w string) int {
	if v.ids == nil {
		v.ids = map[string]int{}
	}
	if id, ok := v.ids[w]; ok {
		return id
	}
	id := len(v.words)
	v.ids[w] = id
	v.words = append(v.words, w)
	return id
}

// ID returns the id for w and whether it is present.
func (v *Vocabulary) ID(w string) (int, bool) {
	id, ok := v.ids[w]
	return id, ok
}

// Word returns the string for id; it panics if id is out of range.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Size returns the number of distinct words.
func (v *Vocabulary) Size() int { return len(v.words) }

// Words returns a copy of all words ordered by id.
func (v *Vocabulary) Words() []string {
	out := make([]string, len(v.words))
	copy(out, v.words)
	return out
}

// TopByCount returns up to k word ids ordered by descending counts[id],
// breaking ties by id. counts must have length >= Size.
func (v *Vocabulary) TopByCount(counts []int, k int) []int {
	ids := make([]int, len(v.words))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if counts[ids[a]] != counts[ids[b]] {
			return counts[ids[a]] > counts[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}
