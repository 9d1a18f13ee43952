package experiments

import (
	"fmt"
	"strings"

	"lesm/internal/cathy"
	"lesm/internal/core"
	"lesm/internal/eval"
	"lesm/internal/hin"
	"lesm/internal/netclus"
	"lesm/internal/synth"
)

// hpmiMethods runs the Table 3.2/3.3 method set on one dataset and returns
// per-link-type HPMI rows.
func hpmiMethods(ds *synth.Dataset, k int, seed int64) ([][]string, []string) {
	e := eval.NewHPMIEvaluator(ds.Docs)
	nTypes := len(ds.TypeNames)
	// Link-type columns: all unordered pairs, term-term first.
	var pairs []hin.TypePair
	for x := 0; x < nTypes; x++ {
		for y := x; y < nTypes; y++ {
			if ds.TypeNames[x] == "venue" && ds.TypeNames[y] == "venue" {
				continue
			}
			pairs = append(pairs, hin.TypePair{X: core.TypeID(x), Y: core.TypeID(y)})
		}
	}
	kOf := func(x core.TypeID) int {
		if ds.TypeNames[x] == "venue" {
			return 3 // the paper's venue exception (only 20 venues exist)
		}
		return 20
	}
	scoreTopics := func(topics []*core.TopicNode) []string {
		var cells []string
		total := 0.0
		for _, p := range pairs {
			v := e.TopicSetHPMI(topics, p.X, p.Y, kOf(p.X), kOf(p.Y))
			total += v
			cells = append(cells, f3(v))
		}
		cells = append(cells, f3(total/float64(len(pairs))))
		return cells
	}

	var rows [][]string

	// TopK pseudo-topic baseline.
	pseudo := &core.TopicNode{Phi: map[core.TypeID][]float64{}}
	counts := map[core.TypeID][]float64{}
	for x := 0; x < nTypes; x++ {
		counts[core.TypeID(x)] = make([]float64, ds.NumNodes[x])
	}
	for _, d := range ds.Docs {
		for _, w := range d.Tokens {
			counts[core.TermType][w]++
		}
		for x, es := range d.Entities {
			for _, id := range es {
				counts[x][id]++
			}
		}
	}
	for x, c := range counts {
		pseudo.Phi[x] = c
	}
	rows = append(rows, append([]string{"TopK"}, scoreTopics([]*core.TopicNode{pseudo})...))

	// NetClus.
	nc := netclus.Run(ds.Docs, ds.NumNodes, netclus.Config{K: k, Iters: 25, Seed: seed})
	var ncTopics []*core.TopicNode
	for c := 0; c < k; c++ {
		tn := &core.TopicNode{Phi: map[core.TypeID][]float64{}}
		for x := 0; x < nTypes; x++ {
			tn.Phi[core.TypeID(x)] = nc.Rank[x][c]
		}
		ncTopics = append(ncTopics, tn)
	}
	rows = append(rows, append([]string{"NetClus"}, scoreTopics(ncTopics)...))

	// CATHYHIN variants.
	for _, v := range []struct {
		name string
		mode cathy.WeightMode
	}{
		{"CATHYHIN (equal weight)", cathy.EqualWeights},
		{"CATHYHIN (norm weight)", cathy.NormWeights},
		{"CATHYHIN (learn weight)", cathy.LearnWeights},
	} {
		res := buildHIN(ds, k, 1, v.mode, seed+int64(v.mode)+3)
		rows = append(rows, append([]string{v.name}, scoreTopics(res.Hierarchy.Root.Children)...))
	}

	header := []string{"method"}
	for _, p := range pairs {
		header = append(header, ds.TypeNames[p.X]+"-"+ds.TypeNames[p.Y])
	}
	header = append(header, "overall")
	return rows, header
}

// Table32 reproduces Table 3.2: HPMI on the DBLP 20-conference dataset and
// its Database-area subset.
func Table32(scale float64) *Table {
	t := &Table{ID: "table3.2", Title: "Heterogeneous PMI on DBLP (higher is better)"}
	full := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(6000, scale), NumAuthors: scaled(1500, scale), Seed: 301})
	rows, header := hpmiMethods(full, 6, 302)
	t.Header = header
	t.Rows = append(t.Rows, []string{"-- DBLP (20 conferences) --"})
	t.Rows = append(t.Rows, rows...)
	db := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(2000, scale), NumAuthors: scaled(500, scale), Seed: 303, AreaOnly: 1})
	rows2, _ := hpmiMethods(db, 4, 304)
	t.Rows = append(t.Rows, []string{"-- DBLP (Database area) --"})
	t.Rows = append(t.Rows, rows2...)
	t.Notes = append(t.Notes,
		"synthetic DBLP stand-in (docs/ARCHITECTURE.md, Stand-ins); expected shape: CATHYHIN > NetClus > TopK, learned weights best overall")
	return t
}

// Table33 reproduces Table 3.3: HPMI on NEWS with 16 stories and the
// 4-story subset.
func Table33(scale float64) *Table {
	t := &Table{ID: "table3.3", Title: "Heterogeneous PMI on NEWS (higher is better)"}
	sub := synth.News(synth.NewsConfig{NumArticles: scaled(2000, scale), Seed: 305, Stories: 4})
	rows, header := hpmiMethods(sub, 4, 306)
	t.Header = header
	t.Rows = append(t.Rows, []string{"-- NEWS (4 topics subset) --"})
	t.Rows = append(t.Rows, rows...)
	full := synth.News(synth.NewsConfig{NumArticles: scaled(6000, scale), Seed: 307})
	rows2, _ := hpmiMethods(full, 16, 308)
	t.Rows = append(t.Rows, []string{"-- NEWS (16 topics) --"})
	t.Rows = append(t.Rows, rows2...)
	t.Notes = append(t.Notes, "entity links carry simulated extraction noise, as in the crawled NEWS data")
	return t
}

// Table34 reproduces Table 3.4: node counts and link weights per type pair.
func Table34(scale float64) *Table {
	t := &Table{ID: "table3.4", Title: "# nodes and links in the constructed networks",
		Header: []string{"dataset", "stat", "value"}}
	add := func(name string, ds *synth.Dataset) {
		net := ds.CollapsedNetwork(0)
		st := net.Stats()
		for x, tn := range ds.TypeNames {
			t.Rows = append(t.Rows, []string{name, "nodes:" + tn, fmt.Sprintf("%d", ds.NumNodes[x])})
		}
		keys := make([]string, 0, len(st.Links))
		for k := range st.Links {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			t.Rows = append(t.Rows, []string{name, "links:" + k, fmt.Sprintf("%.0f", st.Links[k])})
		}
	}
	add("DBLP", synth.DBLP(synth.DBLPConfig{NumPapers: scaled(6000, scale), NumAuthors: scaled(1500, scale), Seed: 309}))
	add("NEWS", synth.News(synth.NewsConfig{NumArticles: scaled(6000, scale), Seed: 310}))
	return t
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// intrusionMethodSet builds the eight Table 3.5 method hierarchies on one
// dataset and scores the intrusion tasks.
func intrusionMethodSet(ds *synth.Dataset, k int, questions int, seed int64) ([][]string, []string) {
	cfg := eval.IntrusionConfig{Questions: questions, Seed: seed}
	type method struct {
		name string
		root *core.TopicNode
	}
	var methods []method

	// CATHYHIN with phrases + CATHYHIN1 (unigram patterns).
	resHIN := buildHIN(ds, k, 2, cathy.LearnWeights, seed+1)
	attachPhrases(ds, resHIN.Hierarchy.Root, 5, 20)
	attachEntitiesFromPhi(ds, resHIN.Hierarchy.Root, 20)
	methods = append(methods, method{"CATHYHIN", resHIN.Hierarchy.Root})

	resHIN1 := buildHIN(ds, k, 2, cathy.LearnWeights, seed+1)
	attachPhrases(ds, resHIN1.Hierarchy.Root, 1, 20)
	attachEntitiesFromPhi(ds, resHIN1.Hierarchy.Root, 20)
	methods = append(methods, method{"CATHYHIN1", resHIN1.Hierarchy.Root})

	// CATHY text-only (+ unigram variant + heuristic entity ranking).
	resTxt := buildTextHierarchy(ds, k, 2, seed+2)
	miner := attachPhrases(ds, resTxt.Hierarchy.Root, 5, 20)
	methods = append(methods, method{"CATHY", resTxt.Hierarchy.Root})

	resTxt1 := buildTextHierarchy(ds, k, 2, seed+2)
	attachPhrases(ds, resTxt1.Hierarchy.Root, 1, 20)
	methods = append(methods, method{"CATHY1", resTxt1.Hierarchy.Root})

	resHeur := buildTextHierarchy(ds, k, 2, seed+2)
	attachPhrases(ds, resHeur.Hierarchy.Root, 5, 20)
	attachEntitiesHeuristic(ds, resHeur.Hierarchy.Root, miner, 20)
	methods = append(methods, method{"CATHYheurHIN", resHeur.Hierarchy.Root})

	// NetClus hierarchy with phrases / unigram phrases / raw.
	nch := netclusHierarchy(ds, k, 2, seed+3)
	attachPhrases(ds, nch.Root, 5, 20)
	attachEntitiesFromPhi(ds, nch.Root, 20)
	methods = append(methods, method{"NetClusphrase", nch.Root})

	nch1 := netclusHierarchy(ds, k, 2, seed+3)
	attachPhrases(ds, nch1.Root, 1, 20)
	attachEntitiesFromPhi(ds, nch1.Root, 20)
	methods = append(methods, method{"NetClusphrase1", nch1.Root})

	nchRaw := netclusHierarchy(ds, k, 2, seed+3)
	attachPhrases(ds, nchRaw.Root, 1, 20)
	attachEntitiesFromPhi(ds, nchRaw.Root, 20)
	methods = append(methods, method{"NetClus", nchRaw.Root})

	entityTypes := []core.TypeID{2, 1} // venue/location first, author/person second
	var rows [][]string
	for _, m := range methods {
		row := []string{m.name, f2(eval.PhraseIntrusion(m.root, ds.Truth, cfg))}
		for _, x := range entityTypes {
			// Questions draw from each topic's top-5 entities: venue-like
			// types only have a handful of on-topic members.
			row = append(row, f2(eval.EntityIntrusion(m.root, ds.Truth, x, 5, cfg)))
		}
		row = append(row, f2(eval.TopicIntrusion(m.root, ds.Truth, cfg)))
		rows = append(rows, row)
	}
	header := []string{"method", "phrase", ds.TypeNames[2], ds.TypeNames[1], "topic"}
	return rows, header
}

// Table35 reproduces Table 3.5: the three intruder-detection tasks for the
// eight method variants on DBLP and NEWS.
func Table35(scale float64) *Table {
	t := &Table{ID: "table3.5", Title: "Intrusion tasks (% questions with intruder identified)"}
	dblp := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(4000, scale), NumAuthors: scaled(1000, scale), Seed: 311})
	q := scaled(210, scale)
	rows, header := intrusionMethodSet(dblp, 6, q, 312)
	t.Header = header
	t.Rows = append(t.Rows, []string{"-- DBLP --"})
	t.Rows = append(t.Rows, rows...)
	news := synth.News(synth.NewsConfig{NumArticles: scaled(4000, scale), Seed: 313, Stories: 8})
	rows2, _ := intrusionMethodSet(news, 4, scaled(280, scale), 314)
	t.Rows = append(t.Rows, []string{"-- NEWS --"})
	t.Rows = append(t.Rows, rows2...)
	t.Notes = append(t.Notes,
		"three oracle judges with 12% noise replace the human annotators; majority scoring as in Section 3.3.2")
	return t
}

// irTopic finds the hierarchy topic best aligned with a ground-truth area by
// the affinity of its top phrases.
func bestAlignedTopic(root *core.TopicNode, ds *synth.Dataset, leafWant func(leaf int) bool) *core.TopicNode {
	var best *core.TopicNode
	bestScore := -1.0
	for _, c := range root.Children {
		score := 0.0
		for i, p := range c.Phrases {
			if i >= 10 {
				break
			}
			aff := ds.Truth.PhraseAffinity(p.Display)
			for l, v := range aff {
				if leafWant(l) {
					score += v
				}
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// topicCard renders a topic as "{phrases} / {entities type1} / {entities type2}".
func topicCard(n *core.TopicNode, k int) string {
	parts := []string{strings.Join(n.TopPhrases(k), "; ")}
	for x := core.TypeID(1); x <= 2; x++ {
		if es := n.TopEntities(x, k); len(es) > 0 {
			parts = append(parts, strings.Join(es, "; "))
		}
	}
	return "{" + strings.Join(parts, "} / {") + "}"
}

// Table36 reproduces Table 3.6: the information-retrieval topic as produced
// by CATHYHIN, CATHY_heuristic-HIN and NetClus_phrase.
func Table36(scale float64) *Table {
	t := &Table{ID: "table3.6", Title: "The 'information retrieval' topic under three methods",
		Header: []string{"method", "topic card (phrases / authors / venues)"}}
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(5000, scale), NumAuthors: scaled(1200, scale), Seed: 315})
	irLeafs := map[int]bool{}
	for l := 0; l < ds.Truth.NumLeaves(); l++ {
		if strings.Contains(ds.Truth.LeafName(l), "retrieval") || strings.Contains(ds.Truth.LeafName(l), "web search") ||
			strings.Contains(ds.Truth.LeafName(l), "question") || strings.Contains(ds.Truth.LeafName(l), "recommendation") {
			irLeafs[l] = true
		}
	}
	want := func(l int) bool { return irLeafs[l] }

	resHIN := buildHIN(ds, 6, 1, cathy.LearnWeights, 316)
	attachPhrases(ds, resHIN.Hierarchy.Root, 5, 20)
	attachEntitiesFromPhi(ds, resHIN.Hierarchy.Root, 20)
	if n := bestAlignedTopic(resHIN.Hierarchy.Root, ds, want); n != nil {
		t.Rows = append(t.Rows, []string{"CATHYHIN", topicCard(n, 3)})
	}

	resTxt := buildTextHierarchy(ds, 6, 1, 317)
	miner := attachPhrases(ds, resTxt.Hierarchy.Root, 5, 20)
	attachEntitiesHeuristic(ds, resTxt.Hierarchy.Root, miner, 20)
	if n := bestAlignedTopic(resTxt.Hierarchy.Root, ds, want); n != nil {
		t.Rows = append(t.Rows, []string{"CATHYheurHIN", topicCard(n, 3)})
	}

	nch := netclusHierarchy(ds, 6, 1, 318)
	attachPhrases(ds, nch.Root, 5, 20)
	attachEntitiesFromPhi(ds, nch.Root, 20)
	if n := bestAlignedTopic(nch.Root, ds, want); n != nil {
		t.Rows = append(t.Rows, []string{"NetClusphrase", topicCard(n, 3)})
	}
	return t
}

// Table37 reproduces Table 3.7: the Egypt topic and its least coherent
// subtopic per method.
func Table37(scale float64) *Table {
	t := &Table{ID: "table3.7", Title: "The 'egypt' topic and its weakest subtopic",
		Header: []string{"method", "level", "topic card (phrases / persons / locations)"}}
	ds := synth.News(synth.NewsConfig{NumArticles: scaled(4000, scale), Seed: 319, Stories: 8})
	egyptLeafs := map[int]bool{}
	for l := 0; l < ds.Truth.NumLeaves(); l++ {
		if strings.Contains(ds.Truth.LeafName(l), "egypt") {
			egyptLeafs[l] = true
		}
	}
	want := func(l int) bool { return egyptLeafs[l] }

	addMethod := func(name string, root *core.TopicNode) {
		n := bestAlignedTopic(root, ds, want)
		if n == nil {
			return
		}
		t.Rows = append(t.Rows, []string{name, "topic", topicCard(n, 4)})
		// Weakest subtopic: lowest mean pairwise phrase affinity coherence.
		var worst *core.TopicNode
		worstScore := 2.0
		for _, c := range n.Children {
			if len(c.Phrases) == 0 {
				continue
			}
			score := 0.0
			cnt := 0
			for i := 0; i < len(c.Phrases) && i < 5; i++ {
				aff := ds.Truth.PhraseAffinity(c.Phrases[i].Display)
				max := 0.0
				for l, v := range aff {
					if want(l) && v > max {
						max = v
					}
				}
				score += max
				cnt++
			}
			if cnt > 0 && score/float64(cnt) < worstScore {
				worstScore = score / float64(cnt)
				worst = c
			}
		}
		if worst != nil {
			t.Rows = append(t.Rows, []string{name, "worst subtopic", topicCard(worst, 4)})
		}
	}

	resHIN := buildHIN(ds, 8, 2, cathy.LearnWeights, 320)
	attachPhrases(ds, resHIN.Hierarchy.Root, 5, 20)
	attachEntitiesFromPhi(ds, resHIN.Hierarchy.Root, 20)
	addMethod("CATHYHIN", resHIN.Hierarchy.Root)

	resTxt := buildTextHierarchy(ds, 8, 2, 321)
	miner := attachPhrases(ds, resTxt.Hierarchy.Root, 5, 20)
	attachEntitiesHeuristic(ds, resTxt.Hierarchy.Root, miner, 20)
	addMethod("CATHYheurHIN", resTxt.Hierarchy.Root)

	nch := netclusHierarchy(ds, 8, 2, 322)
	attachPhrases(ds, nch.Root, 5, 20)
	attachEntitiesFromPhi(ds, nch.Root, 20)
	addMethod("NetClusphrase", nch.Root)
	return t
}

// Fig34 prints a sample CATHYHIN hierarchy (Figure 3.4).
func Fig34(scale float64) *Table {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(4000, scale), NumAuthors: scaled(1000, scale), Seed: 323})
	res := buildHIN(ds, 3, 2, cathy.LearnWeights, 324)
	attachPhrases(ds, res.Hierarchy.Root, 5, 10)
	attachEntitiesFromPhi(ds, res.Hierarchy.Root, 5)
	t := &Table{ID: "fig3.4", Title: "sample CATHYHIN hierarchy (phrases / authors / venues per node)",
		Header: []string{"topic", "card"}}
	res.Hierarchy.Root.Walk(func(n *core.TopicNode) {
		if n.Parent() == nil {
			return
		}
		t.Rows = append(t.Rows, []string{n.Path, topicCard(n, 4)})
	})
	return t
}

// Fig38 reproduces Figure 3.8: learned link-type weights at the first and
// second level of the DBLP hierarchy.
func Fig38(scale float64) *Table {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: scaled(5000, scale), NumAuthors: scaled(1200, scale), Seed: 325})
	res := buildHIN(ds, 6, 2, cathy.LearnWeights, 326)
	t := &Table{ID: "fig3.8", Title: "learned link-type weights per level",
		Header: []string{"link type", "level 1 (root split)", "level 2 (area splits, mean)"}}
	rootA := res.Alphas["o"]
	// Average level-2 alphas across children that were split.
	sum := map[hin.TypePair]float64{}
	cnt := map[hin.TypePair]int{}
	for _, c := range res.Hierarchy.Root.Children {
		if a, ok := res.Alphas[c.Path]; ok {
			for p, v := range a {
				sum[p] += v
				cnt[p]++
			}
		}
	}
	var keys []hin.TypePair
	for p := range rootA {
		keys = append(keys, p)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
				keys[j-1], keys[j] = keys[j], keys[j-1]
			}
		}
	}
	for _, p := range keys {
		l2 := "-"
		if cnt[p] > 0 {
			l2 = f3(sum[p] / float64(cnt[p]))
		}
		name := ds.TypeNames[p.X] + "-" + ds.TypeNames[p.Y]
		t.Rows = append(t.Rows, []string{name, f3(rootA[p]), l2})
	}
	t.Notes = append(t.Notes,
		"paper's shape: venue links weighted high at level 1 and much lower at level 2")
	return t
}
