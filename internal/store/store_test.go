package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"lesm/internal/core"
	"lesm/internal/tpfg"
)

// sampleHierarchy builds a small but fully-populated hierarchy: phi over
// two types, ranked phrases and entities, three levels.
func sampleHierarchy() *core.Hierarchy {
	h := core.NewHierarchy()
	h.TypeNames[1] = "author"
	h.Root.Phi = map[core.TypeID][]float64{core.TermType: {0.5, 0.3, 0.2}, 1: {0.9, 0.1}}
	a := h.Root.AddChild()
	b := h.Root.AddChild()
	a.Rho, b.Rho = 0.6, 0.4
	a.Phi = map[core.TypeID][]float64{core.TermType: {0.7, 0.2, 0.1}}
	b.Phi = map[core.TypeID][]float64{core.TermType: {0.1, 0.1, 0.8}}
	a.Phrases = []core.RankedPhrase{
		{Words: []int{0, 1}, Display: "query processing", Score: 2.5},
		{Words: []int{2}, Display: "index", Score: 1.25},
	}
	a.Entities = map[core.TypeID][]core.RankedEntity{
		1: {{ID: 3, Display: "jiawei han", Score: 0.8}, {ID: 5, Display: "chi wang", Score: 0.7}},
	}
	aa := a.AddChild()
	aa.Rho = 1
	aa.Phi = map[core.TypeID][]float64{core.TermType: {1. / 3, 1. / 3, 1. / 3}}
	return h
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Vocab:  []string{"query", "processing", "index"},
		Corpus: &CorpusMeta{NumDocs: 12, TotalTokens: 48, WordCounts: []int{20, 18, 10}},
		Topics: &Topics{
			K: 2, V: 3,
			Weight: []float64{0.6, 0.4},
			Phi:    [][]float64{{0.5, 0.25, 0.25}, {0.1, 0.2, 0.7}},
			Alpha:  0.5, Beta: 0.01,
			NKV: [][]int{{10, 5, 5}, {2, 4, 14}},
			NK:  []int{20, 20},
		},
		Hierarchy: sampleHierarchy(),
		RolePhrases: []TopicPhrases{
			{Path: "o", Phrases: []core.RankedPhrase{{Words: []int{0}, Display: "query", Score: 1}}},
			{Path: "o/1", Phrases: []core.RankedPhrase{{Words: []int{0, 1}, Display: "query processing", Score: 3}}},
		},
		Advisor: &Advisor{
			Net: &tpfg.Network{
				NumAuthors: 3,
				First:      []int{1999, 2004, 2005},
				Cands: [][]tpfg.Candidate{
					nil,
					{{Advisor: 0, Start: 2004, End: 2008, Local: 0.7}},
					{{Advisor: 0, Start: 2005, End: 2009, Local: 0.4}, {Advisor: 1, Start: 2006, End: 2009, Local: 0.3}},
				},
			},
			Rank: [][]float64{{1}, {0.3, 0.7}, {0.2, 0.5, 0.3}},
		},
	}
}

// TestRoundTripByteIdentical is the format's core guarantee: for every
// artifact type, alone and combined, Encode→Decode→Encode is byte-identical
// (the property-style pass over all 2^6-1 non-empty section subsets keeps
// any one section's round-trip honest even when the others are absent).
func TestRoundTripByteIdentical(t *testing.T) {
	full := sampleSnapshot()
	for mask := 1; mask < 1<<6; mask++ {
		s := &Snapshot{}
		if mask&1 != 0 {
			s.Vocab = full.Vocab
		}
		if mask&2 != 0 {
			s.Corpus = full.Corpus
		}
		if mask&4 != 0 {
			s.Topics = full.Topics
		}
		if mask&8 != 0 {
			s.Hierarchy = full.Hierarchy
		}
		if mask&16 != 0 {
			s.RolePhrases = full.RolePhrases
		}
		if mask&32 != 0 {
			s.Advisor = full.Advisor
		}
		b1, err := Encode(s)
		if err != nil {
			t.Fatalf("mask %b: encode: %v", mask, err)
		}
		got, err := Decode(b1)
		if err != nil {
			t.Fatalf("mask %b: decode: %v", mask, err)
		}
		b2, err := Encode(got)
		if err != nil {
			t.Fatalf("mask %b: re-encode: %v", mask, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("mask %b: re-encoded snapshot differs (%d vs %d bytes)", mask, len(b1), len(b2))
		}
	}
}

func TestRoundTripDeepEqual(t *testing.T) {
	s := sampleSnapshot()
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vocab, s.Vocab) {
		t.Errorf("vocab mismatch: %v", got.Vocab)
	}
	if !reflect.DeepEqual(got.Corpus, s.Corpus) {
		t.Errorf("corpus mismatch: %+v", got.Corpus)
	}
	if !reflect.DeepEqual(got.Topics, s.Topics) {
		t.Errorf("topics mismatch: %+v", got.Topics)
	}
	if !reflect.DeepEqual(got.RolePhrases, s.RolePhrases) {
		t.Errorf("role phrases mismatch: %+v", got.RolePhrases)
	}
	if !reflect.DeepEqual(got.Advisor, s.Advisor) {
		t.Errorf("advisor mismatch: %+v", got.Advisor)
	}
	// The hierarchy holds unexported parent pointers; compare structure and
	// payloads field by field instead of DeepEqual on the whole tree.
	var want, have []*core.TopicNode
	s.Hierarchy.Root.Walk(func(n *core.TopicNode) { want = append(want, n) })
	got.Hierarchy.Root.Walk(func(n *core.TopicNode) { have = append(have, n) })
	if len(want) != len(have) {
		t.Fatalf("hierarchy size %d != %d", len(have), len(want))
	}
	if !reflect.DeepEqual(got.Hierarchy.TypeNames, s.Hierarchy.TypeNames) {
		t.Errorf("type names mismatch: %v", got.Hierarchy.TypeNames)
	}
	for i := range want {
		w, h := want[i], have[i]
		if w.Path != h.Path || w.Level != h.Level || w.Rho != h.Rho {
			t.Errorf("node %d header mismatch: %q/%d/%v vs %q/%d/%v", i, h.Path, h.Level, h.Rho, w.Path, w.Level, w.Rho)
		}
		if !reflect.DeepEqual(w.Phi, h.Phi) {
			t.Errorf("node %q phi mismatch", w.Path)
		}
		if !reflect.DeepEqual(w.Phrases, h.Phrases) {
			t.Errorf("node %q phrases mismatch", w.Path)
		}
		if !reflect.DeepEqual(w.Entities, h.Entities) && !(len(w.Entities) == 0 && len(h.Entities) == 0) {
			t.Errorf("node %q entities mismatch", w.Path)
		}
		if (h.Parent() == nil) != (w.Parent() == nil) {
			t.Errorf("node %q parent link mismatch", w.Path)
		}
	}
}

// TestFloatBitPatternsSurvive pins the exact-bits contract: negative zero
// and extreme values must round-trip unchanged.
func TestFloatBitPatternsSurvive(t *testing.T) {
	s := &Snapshot{Topics: &Topics{
		K: 1, V: 4,
		Phi:    [][]float64{{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300}},
		Weight: []float64{1},
	}}
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Topics.Phi[0] {
		if math.Float64bits(got.Topics.Phi[0][i]) != math.Float64bits(v) {
			t.Errorf("phi[%d] bits changed: %x vs %x", i, math.Float64bits(got.Topics.Phi[0][i]), math.Float64bits(v))
		}
	}
}

func TestCorruptedCRCRejected(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the last section's payload (well past the header).
	bad := append([]byte(nil), b...)
	bad[len(bad)-5] ^= 0xff
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("corrupted payload accepted: err = %v", err)
	}
}

func TestBadMagicAndVersionRejected(t *testing.T) {
	if _, err := Decode([]byte("NOTASNAPxxxxxxxx")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: err = %v", err)
	}
	b, err := Encode(&Snapshot{Vocab: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[len(Magic)] = 99 // version field
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: err = %v", err)
	}
}

func TestCorruptSectionCountRejected(t *testing.T) {
	b, err := Encode(&Snapshot{Vocab: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	// A huge section count in an otherwise tiny file must be rejected
	// up front, not drive a giant table pre-allocation.
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad[len(Magic)+4:], 0xFFFFFFFF)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "section count") {
		t.Fatalf("corrupt section count accepted: err = %v", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(Magic) + 2, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDeepHierarchyChainRejected(t *testing.T) {
	// A CRC-valid chain of single-child nodes past the depth bound must be
	// a decode error, not a process-killing stack overflow. The payload is
	// hand-crafted (an attacker's file, ~45 bytes per level), not built
	// through AddChild, whose growing path strings would make the fixture
	// quadratic.
	var p enc
	p.u64(0) // no type names
	node := func(children uint64) {
		p.str("o") // path
		p.i64(0)   // level
		p.f64(1)   // rho
		p.u64(0)   // phi types
		p.u64(0)   // phrases
		p.u64(0)   // entity types
		p.u64(children)
	}
	for i := 0; i < maxHierDepth+2; i++ {
		node(1)
	}
	node(0)

	var e enc
	e.buf = append(e.buf, Magic...)
	e.u32(Version)
	e.u32(1)
	e.rawStr(SecHier)
	headerSize := len(Magic) + 4 + 4 + (4 + len(SecHier) + 8 + 8 + 4)
	e.u64(uint64(headerSize))
	e.u64(uint64(len(p.buf)))
	e.u32(crc32.ChecksumIEEE(p.buf))
	e.buf = append(e.buf, p.buf...)

	if _, err := Decode(e.buf); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("depth bomb accepted: err = %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	s := sampleSnapshot()
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Topics, s.Topics) {
		t.Fatal("file round-trip lost topics")
	}
	want := []string{SecVocab, SecCorpus, SecTopics, SecHier, SecRoles, SecAdvisor}
	if !reflect.DeepEqual(got.Sections(), want) {
		t.Fatalf("sections = %v", got.Sections())
	}
}

// TestValidateVocabMatchesTopics: a snapshot whose vocab section and
// topic section disagree on the word count is CRC-valid but would index
// past one of them, so Validate rejects it, through the file too. Either
// section alone, or both agreeing, passes.
func TestValidateVocabMatchesTopics(t *testing.T) {
	for _, c := range []struct {
		name  string
		vocab []string
		ok    bool
	}{
		{"same", []string{"query", "processing", "index"}, true},
		{"longer", []string{"query", "processing", "index", "storage"}, false},
		{"shorter", []string{"query", "processing"}, false},
		{"absent", nil, true},
	} {
		s := sampleSnapshot()
		s.Vocab = c.vocab
		b, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		err = got.Validate()
		if c.ok && err != nil || !c.ok && (err == nil || !strings.Contains(err.Error(), "vocab has")) {
			t.Fatalf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	s := sampleSnapshot()
	s.Topics = nil
	s.Vocab = append(s.Vocab, "storage")
	if err := s.Validate(); err != nil {
		t.Fatalf("vocab without topics: Validate = %v", err)
	}
}
