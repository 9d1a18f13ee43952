package core

import (
	"fmt"
	"strings"
)

// TypeID identifies a node type in a heterogeneous network (e.g. term,
// author, venue). Type 0 is the term (word) type by convention.
type TypeID int

// TermType is the node type holding vocabulary terms by convention.
const TermType TypeID = 0

// RankedPhrase is a phrase together with the score that ranked it within a
// topic. Words holds the vocabulary ids of the constituent words; Display is
// the human-readable surface form.
type RankedPhrase struct {
	Words   []int
	Display string
	Score   float64
}

// RankedEntity is an entity (node of some non-term type) ranked within a
// topic.
type RankedEntity struct {
	ID      int
	Display string
	Score   float64
}

// TopicNode is one topic in a topical hierarchy. Every non-leaf topic has
// Children subtopics; each topic carries a per-type distribution over nodes
// (phi), a share of its parent's links (rho), and, once visualization has
// run, ranked phrases and entities.
type TopicNode struct {
	// Path denotes the topic by the top-down path from the root, e.g. "o",
	// "o/1", "o/1/2" (Section 3.1 notation).
	Path string
	// Level is the number of '/' in Path: the root is level 0.
	Level int
	// Rho is the expected fraction of the parent topic's links attributed to
	// this topic (rho_{pi(t),chi(t)}); 1 for the root.
	Rho float64
	// Phi[x] is the ranking distribution over type-x nodes in this topic
	// (phi^x_t). Phi[TermType] is the word distribution.
	Phi map[TypeID][]float64
	// Phrases is the ordered list of representative phrases (P_t).
	Phrases []RankedPhrase
	// Entities[x] is the ordered list of representative type-x entities.
	Entities map[TypeID][]RankedEntity
	// Children are the subtopics, indexed 1..C_t in Path notation.
	Children []*TopicNode

	parent *TopicNode
}

// Hierarchy is a phrase-represented, entity-enriched topical hierarchy
// (Definition 2). TypeNames maps TypeID to a human-readable type name.
type Hierarchy struct {
	Root      *TopicNode
	TypeNames map[TypeID]string
}

// NewHierarchy returns a hierarchy with a fresh root topic denoted "o".
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		Root:      &TopicNode{Path: "o", Rho: 1, Phi: map[TypeID][]float64{}, Entities: map[TypeID][]RankedEntity{}},
		TypeNames: map[TypeID]string{TermType: "term"},
	}
}

// AddChild appends a new subtopic under t and returns it. The child path
// extends the parent path with the 1-based child index.
func (t *TopicNode) AddChild() *TopicNode {
	c := &TopicNode{
		Path:     fmt.Sprintf("%s/%d", t.Path, len(t.Children)+1),
		Level:    t.Level + 1,
		Phi:      map[TypeID][]float64{},
		Entities: map[TypeID][]RankedEntity{},
		parent:   t,
	}
	t.Children = append(t.Children, c)
	return c
}

// Parent returns the parent topic, or nil for the root.
func (t *TopicNode) Parent() *TopicNode { return t.parent }

// Walk visits t and all descendants in depth-first pre-order.
func (t *TopicNode) Walk(visit func(*TopicNode)) {
	visit(t)
	for _, c := range t.Children {
		c.Walk(visit)
	}
}

// Leaves returns all leaf topics below (and possibly including) t in
// pre-order.
func (t *TopicNode) Leaves() []*TopicNode {
	var out []*TopicNode
	t.Walk(func(n *TopicNode) {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	})
	return out
}

// Find returns the topic with the given path under t, or nil.
func (t *TopicNode) Find(path string) *TopicNode {
	var found *TopicNode
	t.Walk(func(n *TopicNode) {
		if n.Path == path {
			found = n
		}
	})
	return found
}

// Height returns the maximal level over all topics in the subtree rooted at
// t, relative to the absolute levels stored in the nodes.
func (t *TopicNode) Height() int {
	h := t.Level
	t.Walk(func(n *TopicNode) {
		if n.Level > h {
			h = n.Level
		}
	})
	return h
}

// Size returns the number of topics in the subtree rooted at t.
func (t *TopicNode) Size() int {
	n := 0
	t.Walk(func(*TopicNode) { n++ })
	return n
}

// TopPhrases returns the display strings of the first k ranked phrases.
func (t *TopicNode) TopPhrases(k int) []string {
	if k > len(t.Phrases) {
		k = len(t.Phrases)
	}
	out := make([]string, 0, k)
	for _, p := range t.Phrases[:k] {
		out = append(out, p.Display)
	}
	return out
}

// TopEntities returns the display strings of the first k ranked type-x
// entities.
func (t *TopicNode) TopEntities(x TypeID, k int) []string {
	es := t.Entities[x]
	if k > len(es) {
		k = len(es)
	}
	out := make([]string, 0, k)
	for _, e := range es[:k] {
		out = append(out, e.Display)
	}
	return out
}

// String renders the hierarchy as an indented tree of topic paths and top
// phrases, suitable for terminal output.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var rec func(n *TopicNode, depth int)
	rec = func(n *TopicNode, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.Path)
		if ps := n.TopPhrases(5); len(ps) > 0 {
			fmt.Fprintf(&b, ": %s", strings.Join(ps, " / "))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(h.Root, 0)
	return b.String()
}
