package lesm

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lesm/internal/synth"
	"lesm/internal/tpfg"
)

func demoCorpus() *Corpus {
	ds := synth.DBLPTitles(synth.TextConfig{NumDocs: 1200, Seed: 1001})
	return ds.Corpus
}

func TestBuildTextHierarchyCATHY(t *testing.T) {
	h, err := BuildTextHierarchy(demoCorpus(), HierarchyOptions{K: 3, Levels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Root.Children) != 3 {
		t.Fatalf("children = %d", len(h.Root.Children))
	}
}

func TestBuildTextHierarchySTROD(t *testing.T) {
	h, err := BuildTextHierarchy(demoCorpus(), HierarchyOptions{Engine: EngineSTROD, K: 3, Levels: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Root.Children) != 3 {
		t.Fatalf("children = %d", len(h.Root.Children))
	}
}

func TestBuildHierarchyErrors(t *testing.T) {
	if _, err := BuildHierarchy(nil, HierarchyOptions{}); err == nil {
		t.Fatal("nil network should error")
	}
	if _, err := BuildTextHierarchy(NewCorpus(), HierarchyOptions{}); err == nil {
		t.Fatal("empty corpus should error")
	}
	if _, err := TopicalPhrases(demoCorpus(), 1, 0); err == nil {
		t.Fatal("k=1 should error")
	}
}

func TestHierarchyOptionsRejected(t *testing.T) {
	corpus := demoCorpus()
	net := synth.DBLP(synth.DBLPConfig{NumPapers: 100, NumAuthors: 30, Seed: 1003}).CollapsedNetwork(0)
	for _, c := range []struct {
		name string
		opt  HierarchyOptions
		want string
	}{
		{"STROD K=-1", HierarchyOptions{Engine: EngineSTROD, K: -1}, "K = -1"},
		{"CATHY K=-1", HierarchyOptions{K: -1}, "K = -1"},
		{"CATHY K=1", HierarchyOptions{K: 1}, "K = 1"},
		{"unknown engine", HierarchyOptions{Engine: EngineSTROD + 1, K: 3}, "unknown Engine"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := BuildTextHierarchy(corpus, c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("BuildTextHierarchy: err = %v, want one containing %q", err, c.want)
			}
			if c.opt.Engine == EngineSTROD {
				return // BuildHierarchy rejects STROD for wanting a corpus
			}
			if _, err := BuildHierarchy(net, c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("BuildHierarchy: err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

func TestAttachPhrasesAndRoles(t *testing.T) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 1000, NumAuthors: 250, Seed: 1002})
	net := ds.CollapsedNetwork(0)
	h, err := BuildHierarchy(net, HierarchyOptions{K: 3, Levels: 2, LearnLinkWeights: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	an, err := AttachPhrases(ds.Corpus, ds.Docs, h, PhraseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPhrases := 0
	h.Root.Walk(func(n *TopicNode) {
		if n.Parent() != nil && len(n.Phrases) > 0 {
			withPhrases++
		}
	})
	if withPhrases == 0 {
		t.Fatal("no topics got phrases")
	}
	top := an.RankEntities(1, h.Root.Children[0].Path, 0, 5)
	if len(top) == 0 {
		t.Fatal("no ranked entities")
	}
}

func TestTopicalPhrasesFlat(t *testing.T) {
	topics, err := TopicalPhrases(demoCorpus(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 4 {
		t.Fatalf("topics = %d", len(topics))
	}
	multi := false
	for _, ps := range topics {
		for _, p := range ps {
			if strings.Contains(p.Display, " ") {
				multi = true
			}
		}
	}
	if !multi {
		t.Fatal("no multiword phrases")
	}
}

func TestMineAdvisorTree(t *testing.T) {
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: 1003})
	papers := make([]RelPaper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = RelPaper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
	}
	res, err := MineAdvisorTree(papers, g.NumAuthors, 6)
	if err != nil {
		t.Fatal(err)
	}
	hit, n := 0, 0
	for a, adv := range g.AdvisorOf {
		if adv < 0 {
			continue
		}
		n++
		if got, _ := res.Advisor(a); got == adv {
			hit++
		}
	}
	if acc := float64(hit) / float64(n); acc < 0.6 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Candidates accessor sane.
	for a := range g.AdvisorOf {
		for _, c := range res.Candidates(a) {
			if c.Rank < 0 || c.Start > c.End {
				t.Fatalf("bad candidate %+v", c)
			}
		}
	}
}

// TestAdvisorResultDuplicateCandidates: author 2 lists advisor 0 twice
// with distinct intervals, and the score must be the argmax rank entry
// (0.6), not the last duplicate's (0.3) a scan of the candidate list for
// the predicted advisor would report.
func TestAdvisorResultDuplicateCandidates(t *testing.T) {
	r := &AdvisorResult{res: &tpfg.Result{
		Net: &tpfg.Network{
			NumAuthors: 3,
			First:      []int{1995, 2003, 2004},
			Cands: [][]tpfg.Candidate{
				nil,
				{{Advisor: 0, Start: 2003, End: 2007}},
				{{Advisor: 0, Start: 2004, End: 2006}, {Advisor: 0, Start: 2006, End: 2008}},
			},
		},
		Rank: [][]float64{{1}, {0.2, 0.8}, {0.1, 0.6, 0.3}},
	}}
	if adv, score := r.Advisor(2); adv != 0 || score != 0.6 {
		t.Fatalf("Advisor(2) = (%d, %v), want (0, 0.6)", adv, score)
	}
	if adv, score := r.Advisor(0); adv != -1 || score != 1 {
		t.Fatalf("Advisor(0) = (%d, %v), want the no-advisor node (-1, 1)", adv, score)
	}
}

func TestMineAdvisorTreeSupervised(t *testing.T) {
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: 1004})
	papers := make([]RelPaper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = RelPaper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
	}
	var train []int
	for a, adv := range g.AdvisorOf {
		if adv >= 0 && a%2 == 0 {
			train = append(train, a)
		}
	}
	res, err := MineAdvisorTreeSupervised(papers, g.NumAuthors, g.AdvisorOf, train, 7)
	if err != nil {
		t.Fatal(err)
	}
	hit, n := 0, 0
	for a, adv := range g.AdvisorOf {
		if adv < 0 || a%2 == 0 {
			continue
		}
		n++
		if got, _ := res.Advisor(a); got == adv {
			hit++
		}
	}
	if acc := float64(hit) / float64(n); acc < 0.6 {
		t.Fatalf("supervised accuracy = %v", acc)
	}
}

func TestInferTopics(t *testing.T) {
	ds := synth.Arxiv(synth.TextConfig{NumDocs: 1500, Seed: 1005})
	m, err := InferTopics(ds.Corpus, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phi) != 5 {
		t.Fatalf("topics = %d", len(m.Phi))
	}
	words := m.TopWords(ds.Corpus.Vocab, 0, 5)
	if len(words) != 5 || words[0] == "" {
		t.Fatalf("top words = %v", words)
	}
}

// --- Persistence & serving (PR 3) ---

func TestTopWordsClampsToVocabulary(t *testing.T) {
	// A model whose word axis is longer than the vocabulary (e.g. a model
	// fit on a larger corpus queried through a trimmed vocabulary) must
	// clamp instead of panicking in Vocabulary.Word.
	v := NewCorpus().Vocab
	v.Add("alpha")
	v.Add("beta")
	m := &TopicModel{Phi: [][]float64{{0.1, 0.5, 0.3, 0.05, 0.05}}}
	words := m.TopWords(v, 0, 5)
	if len(words) != 2 {
		t.Fatalf("clamped words = %v, want 2 entries", words)
	}
	// Highest-probability renderable word first (id 1 = "beta").
	if words[0] != "beta" || words[1] != "alpha" {
		t.Fatalf("words = %v", words)
	}
	if got := m.TopWords(v, 0, 0); got != nil {
		t.Fatalf("n=0 gave %v", got)
	}
}

func TestInferTopicsGibbsExportsCounts(t *testing.T) {
	corpus := demoCorpus()
	m, err := InferTopicsGibbs(corpus, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if m.NKV == nil || m.NK == nil || m.Beta <= 0 {
		t.Fatal("Gibbs model missing fold-in sufficient statistics")
	}
	if len(m.Phi) != 4 || len(m.Weight) != 4 {
		t.Fatalf("shape: phi=%d weight=%d", len(m.Phi), len(m.Weight))
	}
	if words := m.TopWords(corpus.Vocab, 0, 5); len(words) != 5 {
		t.Fatalf("top words = %v", words)
	}
}

// fullArtifact fits every artifact type on small synthetic data.
func fullArtifact(t *testing.T) *Artifact {
	t.Helper()
	corpus := demoCorpus()
	h, err := BuildTextHierarchy(corpus, HierarchyOptions{K: 3, Levels: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachPhrases(corpus, nil, h, PhraseOptions{TopN: 6}); err != nil {
		t.Fatal(err)
	}
	topics, err := InferTopicsGibbs(corpus, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := synth.NewGenealogy(synth.GenealogyConfig{Seed: 1003})
	papers := make([]RelPaper, len(g.Papers))
	for i, p := range g.Papers {
		papers[i] = RelPaper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
	}
	adv, err := MineAdvisorTree(papers, g.NumAuthors, 6)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Hierarchy:   h,
		Topics:      topics,
		Vocab:       corpus.Vocab,
		Corpus:      NewCorpusMeta(corpus),
		RolePhrases: RolePhrasesOf(h),
		Advisor:     adv,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := fullArtifact(t)
	dir := t.TempDir()
	p1, p2 := dir+"/m1.lesm", dir+"/m2.lesm"
	if err := Save(p1, a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	// Save(Load(Save(a))) must be byte-identical to Save(a).
	if err := Save(p2, got); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-saved snapshot differs: %d vs %d bytes", len(b1), len(b2))
	}
	// Restored content answers the same queries.
	if got.Vocab.Size() != a.Vocab.Size() {
		t.Fatalf("vocab size %d != %d", got.Vocab.Size(), a.Vocab.Size())
	}
	if got.Hierarchy.Root.Size() != a.Hierarchy.Root.Size() {
		t.Fatalf("hierarchy size changed")
	}
	if !reflect.DeepEqual(got.Topics, a.Topics) {
		t.Fatal("topic model changed across round-trip")
	}
	if len(got.RolePhrases) != len(a.RolePhrases) {
		t.Fatal("role phrases changed")
	}
	wantAdv, wantScore := a.Advisor.Advisor(5)
	gotAdv, gotScore := got.Advisor.Advisor(5)
	if wantAdv != gotAdv || wantScore != gotScore {
		t.Fatalf("advisor answer changed: %d/%v vs %d/%v", gotAdv, gotScore, wantAdv, wantScore)
	}
	if !reflect.DeepEqual(got.Sections(), a.Sections()) || len(a.Sections()) != 7 {
		t.Fatalf("sections = %v vs %v", got.Sections(), a.Sections())
	}
}

// TestArtifactSearchIndex pins the public index accessor: lazily built,
// cached, deterministic per content, and answering exact + fuzzy lookups
// over the artifact's names.
func TestArtifactSearchIndex(t *testing.T) {
	a := fullArtifact(t)
	ix := a.SearchIndex()
	if ix == nil || ix.Entries() == 0 {
		t.Fatal("empty search index for a full artifact")
	}
	if a.SearchIndex() != ix {
		t.Fatal("accessor rebuilt the index instead of caching it")
	}
	// A vocabulary word resolves exactly and under one edit.
	word := a.Vocab.Word(0)
	h, ok := ix.Resolve(word, SearchWord)
	if !ok || h.ID != 0 {
		t.Fatalf("Resolve(%q) = %+v, %v", word, h, ok)
	}
	if hits := ix.Search(word+"x", 3); len(hits) == 0 {
		t.Fatalf("fuzzy search for %q found nothing", word+"x")
	}
	// Loading the same snapshot yields a bit-identical index.
	dir := t.TempDir()
	if err := Save(dir+"/m.lesm", a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir + "/m.lesm")
	if err != nil {
		t.Fatal(err)
	}
	if got.SearchIndex().Checksum() != ix.Checksum() {
		t.Fatal("search index differs across a save/load round-trip")
	}
}

func TestArtifactInferDeterministicAcrossP(t *testing.T) {
	corpus := demoCorpus()
	topics, err := InferTopicsGibbs(corpus, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Topics: topics, Vocab: corpus.Vocab}
	docs := make([][]int, 60)
	for i := range docs {
		docs[i] = []int{i % corpus.Vocab.Size(), (3 * i) % corpus.Vocab.Size()}
	}
	base, err := a.Infer(docs, 13, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := a.Infer(docs, 13, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, par) {
		t.Fatal("fold-in differs across parallelism")
	}
	// Text-level inference drops unknown words and still normalizes.
	theta, err := a.InferText([]string{"database query processing", "entirely unknown words"}, DefaultPipeline, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range theta {
		sum := 0.0
		for _, v := range th {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("theta not normalized: %v", th)
		}
	}
	// No topics section -> typed error.
	if _, err := (&Artifact{Vocab: corpus.Vocab}).Infer(docs, 1); err == nil {
		t.Fatal("inference without topics should error")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	a := fullArtifact(t)
	path := t.TempDir() + "/m.lesm"
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x55
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// TestLoadMappedMatchesLoad: the zero-copy mmap load must answer the same
// queries as the heap load and produce identical fold-in results; the
// mapping stays usable until the closer is released.
func TestLoadMappedMatchesLoad(t *testing.T) {
	a := fullArtifact(t)
	path := t.TempDir() + "/m.lesm"
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !reflect.DeepEqual(mapped.Topics, heap.Topics) {
		t.Fatal("mapped topic model differs from heap load")
	}
	if mapped.Vocab.Size() != heap.Vocab.Size() || mapped.Hierarchy.Root.Size() != heap.Hierarchy.Root.Size() {
		t.Fatal("mapped structure differs from heap load")
	}
	docs := [][]int{{0, 1, 2, 3}, {4, 5}}
	want, err := heap.Infer(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mapped.Infer(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mapped fold-in differs from heap fold-in")
	}
	// Corruption is caught at open, exactly like Load.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x55
	bad := t.TempDir() + "/bad.lesm"
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMapped(bad); err == nil {
		t.Fatal("corrupted snapshot accepted by LoadMapped")
	}
}

// TestSaveWritesFoldInSection: for any topic model, small (K=4) or not
// (K=32), Save writes the foldin section; LoadMapped adopts its tables
// from the mapping, re-saves byte-identically, and infers exactly what a
// fresh artifact over the same topics infers.
func TestSaveWritesFoldInSection(t *testing.T) {
	corpus := demoCorpus()
	for _, k := range []int{32, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			topics, err := InferTopicsGibbs(corpus, k, 5)
			if err != nil {
				t.Fatal(err)
			}
			a := &Artifact{Topics: topics, Vocab: corpus.Vocab}
			if want := []string{"vocab", "topics", "foldin"}; !reflect.DeepEqual(a.Sections(), want) {
				t.Fatalf("sections = %v, want %v", a.Sections(), want)
			}
			dir := t.TempDir()
			if err := Save(dir+"/m.lesm", a); err != nil {
				t.Fatal(err)
			}
			mapped, closer, err := LoadMapped(dir + "/m.lesm")
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			if err := Save(dir+"/again.lesm", mapped); err != nil {
				t.Fatal(err)
			}
			b1, _ := os.ReadFile(dir + "/m.lesm")
			b2, _ := os.ReadFile(dir + "/again.lesm")
			if !bytes.Equal(b1, b2) {
				t.Fatalf("Save → LoadMapped → Save changed the snapshot (%d vs %d bytes)", len(b1), len(b2))
			}
			fm, err := mapped.foldInModel()
			if err != nil {
				t.Fatal(err)
			}
			if tab := fm.Tables(); &tab.Alias[0] != &mapped.foldTables.Alias[0] {
				t.Fatal("the loaded artifact built its fold-in tables instead of adopting the section's")
			}
			docs := [][]int{{0, 1, 2, 3, 4, 5}, {7, 7, 9}}
			fresh := &Artifact{Topics: topics, Vocab: corpus.Vocab}
			want, err := fresh.Infer(docs, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mapped.Infer(docs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("fold-in over the adopted tables differs from a fresh build")
			}
		})
	}
}
