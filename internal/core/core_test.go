package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func buildTree() *Hierarchy {
	h := NewHierarchy()
	a := h.Root.AddChild()
	b := h.Root.AddChild()
	a1 := a.AddChild()
	a.AddChild()
	_ = a1
	_ = b
	return h
}

func TestPathNotation(t *testing.T) {
	h := buildTree()
	if h.Root.Path != "o" {
		t.Fatalf("root path = %q", h.Root.Path)
	}
	if h.Root.Children[0].Path != "o/1" || h.Root.Children[1].Path != "o/2" {
		t.Fatalf("child paths = %q %q", h.Root.Children[0].Path, h.Root.Children[1].Path)
	}
	if h.Root.Children[0].Children[1].Path != "o/1/2" {
		t.Fatalf("grandchild path = %q", h.Root.Children[0].Children[1].Path)
	}
	if h.Root.Children[0].Children[1].Level != 2 {
		t.Fatalf("level = %d", h.Root.Children[0].Children[1].Level)
	}
}

func TestWalkLeavesFindSize(t *testing.T) {
	h := buildTree()
	if h.Root.Size() != 5 {
		t.Fatalf("size = %d", h.Root.Size())
	}
	if got := len(h.Root.Leaves()); got != 3 {
		t.Fatalf("leaves = %d", got)
	}
	if h.Root.Find("o/1/2") == nil {
		t.Fatal("Find failed")
	}
	if h.Root.Find("o/9") != nil {
		t.Fatal("Find should miss")
	}
	if h.Root.Height() != 2 {
		t.Fatalf("height = %d", h.Root.Height())
	}
	if h.Root.Children[0].Parent() != h.Root {
		t.Fatal("parent link broken")
	}
}

func TestSortAndTopPhrases(t *testing.T) {
	n := &TopicNode{Phrases: []RankedPhrase{
		{Display: "a", Score: 3},
		{Display: "c", Score: 2},
		{Display: "b", Score: 1},
	}}
	if got := n.TopPhrases(2); got[0] != "a" || got[1] != "c" {
		t.Fatalf("top = %v", got)
	}
	if got := n.TopPhrases(10); len(got) != 3 {
		t.Fatalf("overlong top = %v", got)
	}
}

func TestTopEntities(t *testing.T) {
	n := &TopicNode{Entities: map[TypeID][]RankedEntity{
		1: {{ID: 4, Display: "x"}, {ID: 2, Display: "y"}},
	}}
	if got := n.TopEntities(1, 1); len(got) != 1 || got[0] != "x" {
		t.Fatalf("entities = %v", got)
	}
	if got := n.TopEntities(2, 3); got != nil && len(got) != 0 {
		t.Fatalf("missing type should be empty, got %v", got)
	}
}

func TestHierarchyString(t *testing.T) {
	h := buildTree()
	h.Root.Children[0].Phrases = []RankedPhrase{{Display: "query processing", Score: 1}}
	s := h.String()
	if !strings.Contains(s, "o/1: query processing") {
		t.Fatalf("render missing phrases:\n%s", s)
	}
	if strings.Count(s, "\n") != 5 {
		t.Fatalf("render lines = %d", strings.Count(s, "\n"))
	}
}

func TestSubtopicSharesProperties(t *testing.T) {
	// Property: shares always form a distribution, for any phi values.
	f := func(p1, p2, p3 uint8, w uint8) bool {
		n := &TopicNode{}
		a := n.AddChild()
		b := n.AddChild()
		a.Rho = 0.5
		b.Rho = 0.5
		a.Phi = map[TypeID][]float64{TermType: {float64(p1) / 255, float64(p2) / 255}}
		b.Phi = map[TypeID][]float64{TermType: {float64(p3) / 255, 0.1}}
		shares := n.SubtopicShares([]int{int(w) % 2})
		s := 0.0
		for _, v := range shares {
			if v < 0 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeFrequencyConserves(t *testing.T) {
	n := &TopicNode{Path: "o"}
	a := n.AddChild()
	b := n.AddChild()
	a.Rho, b.Rho = 0.6, 0.4
	a.Phi = map[TypeID][]float64{TermType: {0.9, 0.1}}
	b.Phi = map[TypeID][]float64{TermType: {0.1, 0.9}}
	freqs := n.AttributeFrequency([]int{0}, 10)
	if freqs["o"] != 10 {
		t.Fatalf("root freq = %v", freqs["o"])
	}
	if math.Abs(freqs["o/1"]+freqs["o/2"]-10) > 1e-9 {
		t.Fatalf("children sum to %v", freqs["o/1"]+freqs["o/2"])
	}
	if freqs["o/1"] <= freqs["o/2"] {
		t.Fatalf("word 0 should mostly go to o/1: %v vs %v", freqs["o/1"], freqs["o/2"])
	}
	// Unknown word (out of phi range) -> uniform fallback.
	uf := n.AttributeFrequency([]int{99}, 4)
	if math.Abs(uf["o/1"]-2) > 1e-9 {
		t.Fatalf("fallback share = %v", uf["o/1"])
	}
}
