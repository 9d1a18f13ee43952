package experiments

import (
	"fmt"
	"strings"

	"lesm/internal/cathy"
	"lesm/internal/core"
	"lesm/internal/roles"
	"lesm/internal/synth"
)

// rolesSetup builds the Chapter 5 pipeline: DBLP dataset, CATHYHIN
// hierarchy, phrase attachment and a role analyzer.
func rolesSetup(scale float64, seed int64) (*synth.Dataset, *cathy.Result, *roles.Analyzer) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(5000, scale), NumAuthors: scaled(1200, scale), Seed: seed})
	res := buildHIN(ds, 6, 2, cathy.LearnWeights, seed+1)
	miner := attachPhrases(ds, res.Hierarchy.Root, 5, 25)
	part := miner.SegmentCorpus(ds.Corpus.Docs)
	an := roles.NewAnalyzer(ds.Corpus, ds.Docs, res.Hierarchy.Root, miner, part)
	an.Names = ds.Names
	return ds, res, an
}

// dmTopic finds the hierarchy child best aligned with the data-mining area.
func alignedChild(ds *synth.Dataset, root *core.TopicNode, keywords ...string) *core.TopicNode {
	return bestAlignedTopic(root, ds, func(l int) bool {
		name := ds.Truth.LeafName(l)
		for _, k := range keywords {
			if strings.Contains(name, k) {
				return true
			}
		}
		return false
	})
}

// prolificAuthors returns the top-n authors by paper count.
func prolificAuthors(ds *synth.Dataset, n int) []int {
	counts := make([]int, ds.NumNodes[1])
	for _, d := range ds.Docs {
		for _, a := range d.Entities[1] {
			counts[a]++
		}
	}
	out := make([]int, 0, n)
	for len(out) < n {
		best, bestC := -1, -1
		for a, c := range counts {
			if c > bestC {
				best, bestC = a, c
			}
		}
		counts[best] = -1
		out = append(out, best)
	}
	return out
}

// Table51 reproduces Table 5.1: phrase-quality-only vs entity-specific vs
// combined ranking for two prolific authors in a data-mining subtopic.
func Table51(scale float64) *Table {
	ds, res, an := rolesSetup(scale, 501)
	t := &Table{ID: "table5.1", Title: "entity-specific phrase ranking (Eq. 5.1-5.2)",
		Header: []string{"ranking", "author", "top phrases"}}
	dm := alignedChild(ds, res.Hierarchy.Root, "pattern", "stream", "graph", "time series")
	if dm == nil || len(dm.Children) == 0 {
		t.Notes = append(t.Notes, "no aligned topic found at this scale")
		return t
	}
	sub := dm
	authors := prolificAuthorsInTopic(ds, an, sub.Path, 2)
	// Quality-only row (shared by both authors).
	var quality []string
	for _, p := range sub.Phrases[:min51(8, len(sub.Phrases))] {
		quality = append(quality, p.Display)
	}
	t.Rows = append(t.Rows, []string{"quality only", "-", strings.Join(quality, " / ")})
	for _, a := range authors {
		spec := an.EntityPhrases(1, a, sub.Path, 0.999, 8) // entity-specific only
		comb := an.EntityPhrases(1, a, sub.Path, 0.5, 8)   // combined
		t.Rows = append(t.Rows, []string{"entity specific", ds.Names[1][a], joinPhrases(spec)})
		t.Rows = append(t.Rows, []string{"combined", ds.Names[1][a], joinPhrases(comb)})
	}
	return t
}

func joinPhrases(ps []core.RankedPhrase) string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Display)
	}
	return strings.Join(out, " / ")
}

func min51(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// prolificAuthorsInTopic ranks authors by topical frequency in a topic.
func prolificAuthorsInTopic(ds *synth.Dataset, an *roles.Analyzer, path string, n int) []int {
	ef := an.EntityFrequency(1, path)
	out := make([]int, 0, n)
	taken := map[int]bool{}
	for len(out) < n {
		best, bestV := -1, -1.0
		for a, v := range ef {
			if !taken[a] && v > bestV {
				best, bestV = a, v
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

// Fig52 reproduces Figures 5.2/5.3: two prolific authors' roles across the
// subtopics of a topic, with estimated paper counts per subtopic.
func Fig52(scale float64) *Table {
	ds, res, an := rolesSetup(scale, 502)
	t := &Table{ID: "fig5.2", Title: "author roles across subtopics (entity frequency = est. papers)",
		Header: []string{"author", "topic", "est. papers", "top specific phrases"}}
	dm := alignedChild(ds, res.Hierarchy.Root, "pattern", "stream", "graph", "time series")
	if dm == nil {
		return t
	}
	authors := prolificAuthorsInTopic(ds, an, dm.Path, 2)
	for _, a := range authors {
		name := ds.Names[1][a]
		ef := an.EntityFrequency(1, dm.Path)
		t.Rows = append(t.Rows, []string{name, dm.Path, f2(ef[a]), joinPhrases(an.EntityPhrases(1, a, dm.Path, 0.5, 5))})
		for _, c := range dm.Children {
			cf := an.EntityFrequency(1, c.Path)
			t.Rows = append(t.Rows, []string{name, c.Path, f2(cf[a]), joinPhrases(an.EntityPhrases(1, a, c.Path, 0.5, 5))})
		}
	}
	t.Notes = append(t.Notes, "subtopic frequencies sum to at most the parent's (Section 5.1.2)")
	return t
}

// Table52 reproduces Table 5.2: the roles of three venues in the
// information-retrieval topic.
func Table52(scale float64) *Table {
	ds, res, an := rolesSetup(scale, 503)
	t := &Table{ID: "table5.2", Title: "venue roles in the information-retrieval topic",
		Header: []string{"venue", "topical phrases published there"}}
	ir := alignedChild(ds, res.Hierarchy.Root, "retrieval", "web search", "question", "recommendation")
	if ir == nil {
		return t
	}
	// Three venues with the largest IR-topic frequency.
	vf := an.EntityFrequency(2, ir.Path)
	for n := 0; n < 3; n++ {
		best, bestV := -1, -1.0
		for v, f := range vf {
			if f > bestV {
				best, bestV = v, f
			}
		}
		if best < 0 {
			break
		}
		vf[best] = -2
		t.Rows = append(t.Rows, []string{ds.Names[2][best], joinPhrases(an.EntityPhrases(2, best, ir.Path, 0.5, 7))})
	}
	return t
}

// Table53 reproduces Table 5.3: top authors of each subtopic under
// popularity-only vs popularity+purity ranking.
func Table53(scale float64) *Table {
	ds, res, an := rolesSetup(scale, 504)
	t := &Table{ID: "table5.3", Title: "top-5 authors per subtopic: ERank pop vs pop+pur",
		Header: []string{"subtopic", "pop", "pop+pur"}}
	dm := alignedChild(ds, res.Hierarchy.Root, "pattern", "stream", "graph", "time series")
	if dm == nil {
		return t
	}
	for _, c := range dm.Children {
		pop := an.RankEntities(1, c.Path, roles.ERankPop, 5)
		pur := an.RankEntities(1, c.Path, roles.ERankPopPur, 5)
		names := func(es []core.RankedEntity) string {
			var out []string
			for _, e := range es {
				out = append(out, e.Display)
			}
			return strings.Join(out, "; ")
		}
		label := c.Path
		if len(c.Phrases) > 0 {
			label = fmt.Sprintf("%s (%s)", c.Path, c.Phrases[0].Display)
		}
		t.Rows = append(t.Rows, []string{label, names(pop), names(pur)})
	}
	t.Notes = append(t.Notes, "expected shape: pop lists share prolific authors across subtopics; pop+pur lists are disjoint")
	return t
}
