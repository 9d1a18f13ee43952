package serve

// Golden digests of the phrase lookups: /phrases/search, /entity/<word>
// (the phrases holding the word) and /entity/<phrase> (its occurrences),
// with /search beside them for the shared q/limit validation. Each
// fixture runs one fixed request list; the digest covers every request's
// target, status and body bytes, so any change to a served byte fails.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lesm/internal/core"
	"lesm/internal/search"
	"lesm/internal/store"
	"lesm/internal/textkit"
)

// phraseGoldenRequests is the fixed request list every fixture answers.
var phraseGoldenRequests = []string{
	"/phrases/search?q=processing",
	"/phrases/search?q=PROCESSING",
	"/phrases/search?q=que",
	"/phrases/search?q=" + url.QueryEscape(" y proc "),
	"/phrases/search?q=ing",
	"/phrases/search?q=n",
	"/phrases/search?q=n&limit=1",
	"/phrases/search?q=n&limit=2",
	"/phrases/search?q=n&limit=3",
	"/phrases/search?q=query&limit=9",
	"/phrases/search?q=query&limit=10",
	"/phrases/search?q=query&limit=11",
	"/phrases/search?q=n&limit=1000",
	"/phrases/search?q=zzz",
	"/phrases/search?q=" + url.QueryEscape("ΣΊΣΥΦΟΣ"),
	"/phrases/search?q=" + url.QueryEscape("σίσυφος l"),
	"/phrases/search?q=" + url.QueryEscape("ς"),
	"/phrases/search",
	"/phrases/search?q=" + url.QueryEscape("  "),
	"/phrases/search?q=n&limit=0",
	"/phrases/search?q=n&limit=-2",
	"/phrases/search?q=n&limit=zap",
	"/search?q=query",
	"/search",
	"/search?q=" + url.QueryEscape("  "),
	"/search?q=query&limit=0",
	"/search?q=query&limit=zap",
	"/entity/query",
	"/entity/processing",
	"/entity/index",
	"/entity/storage",
	"/entity/network",
	"/entity/learning",
	"/entity/descent",
	"/entity/quer",
	"/entity/" + url.PathEscape("query processing"),
	"/entity/" + url.PathEscape("QUERY PROCESSING"),
	"/entity/" + url.PathEscape("network learning"),
	"/entity/" + url.PathEscape("Network Learning"),
	"/entity/" + url.PathEscape("index storage"),
	"/entity/" + url.PathEscape("Σίσυφος"),
	"/entity/" + url.PathEscape("ΣΊΣΥΦΟΣ"),
	"/entity/" + url.PathEscape("σίσυφος learning"),
}

// phraseGoldenFixtures builds the fixture snapshots: the test snapshot
// with its roles section; the same without roles, so the hierarchy's
// phrase lists are served; one display under two paths with tied scores,
// case variants of a display and more phrases holding "query" than a
// profile lists; non-ASCII case folding; and snapshots without a phrase.
func phraseGoldenFixtures(t *testing.T) map[string]*store.Snapshot {
	fx := map[string]*store.Snapshot{}

	fx["roles"] = testSnapshot(t)

	hier := testSnapshot(t)
	hier.RolePhrases = nil
	hier.Hierarchy.Root.Phrases = []core.RankedPhrase{{Display: "query learning", Score: 2}}
	fx["hierarchy"] = hier

	tied := testSnapshot(t)
	rp := func(display string, score float64) core.RankedPhrase {
		return core.RankedPhrase{Display: display, Score: score}
	}
	tied.RolePhrases = []store.TopicPhrases{
		// o/2 is listed first, so the path tie-break has to reorder.
		{Path: "o/2", Phrases: []core.RankedPhrase{
			rp("query processing", 3), rp("Network Learning", 2), rp("network learning", 2),
			rp("query network", 1), rp("query learning", 1), rp("query gradient", 1),
			rp("gradient descent query", 0.5),
		}},
		{Path: "o/1", Phrases: []core.RankedPhrase{
			rp("query processing", 3), rp("index storage", 2),
			rp("query index", 1), rp("query database", 1), rp("query storage", 1),
			rp("database query", 1), rp("storage query", 0.5), rp("index query", 0.5),
			rp("query query", 0.25),
		}},
	}
	fx["tied"] = tied

	fold := testSnapshot(t)
	fold.Vocab = append(append([]string(nil), fold.Vocab...), "Σίσυφος")
	fold.RolePhrases = append(fold.RolePhrases,
		store.TopicPhrases{Path: "o/2", Phrases: []core.RankedPhrase{rp("Σίσυφος learning", 1), rp("ΣΊΣΥΦΟΣ", 1)}},
		store.TopicPhrases{Path: "o/1", Phrases: []core.RankedPhrase{rp("query σίσυφος", 2)}},
	)
	fx["fold"] = fold

	none := testSnapshot(t)
	none.RolePhrases, none.Hierarchy = nil, nil
	fx["phraseless"] = none

	// A roles section wins over the hierarchy even when it lists no phrase.
	emptyRoles := testSnapshot(t)
	emptyRoles.RolePhrases = []store.TopicPhrases{{Path: "o/1"}, {Path: "o/2"}}
	fx["empty-roles"] = emptyRoles

	return fx
}

// phraseGoldenDigest serves the request list against snap and returns the
// sha256 of every target, status and body, with the transcript.
func phraseGoldenDigest(t *testing.T, snap *store.Snapshot) (string, string) {
	t.Helper()
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var b strings.Builder
	for _, target := range phraseGoldenRequests {
		rec := s.serveOnce(t, http.MethodGet, target, nil)
		fmt.Fprintf(&b, "%s\n%d\n%s", target, rec.Code, rec.Body.String())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), b.String()
}

// TestPhraseLookupGolden pins the phrase lookup bytes per fixture. The
// phraseless fixtures must answer /phrases/search with 404.
func TestPhraseLookupGolden(t *testing.T) {
	fixtures := phraseGoldenFixtures(t)
	for _, c := range []struct{ name, digest string }{
		{"roles", "9a5a4d2b56a718ebb278809c423d62f1c012b013b9852a1d25040d084f42a9cf"},
		{"hierarchy", "d6351d0df2c71f020df0e93fba025b28de10b8c16bd2d032441b16ed96466d5e"},
		{"tied", "9232815c20ff9be1f0aa19f767644f807a1c37ee97dc880e70d36133014dd4c0"},
		{"fold", "0e255fd03a57b1aa3f5847b01ed76fb17548d3ff4ab26d3871801f7f8a12c4c5"},
		{"phraseless", "a47c342cbebb1e87842ae348e2a3267b9cb0c25c8e23adfe180375a741fdfcd9"},
		{"empty-roles", "1acffb3a48800907e75d2dc917022e88e8b28c21ff100d474a1f9c8f18b08478"},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap := fixtures[c.name]
			got, transcript := phraseGoldenDigest(t, snap)
			if got != c.digest {
				t.Logf("transcript:\n%s", transcript)
				t.Errorf("digest = %s, want %s", got, c.digest)
			}
			if c.name == "phraseless" || c.name == "empty-roles" {
				s, err := New(snap, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if rec := s.serveOnce(t, http.MethodGet, "/phrases/search?q=n", nil); rec.Code != http.StatusNotFound {
					t.Fatalf("phraseless /phrases/search = %d %s, want 404", rec.Code, rec.Body)
				}
			}
		})
	}
}

// scanPhrasesWithToken is the per-request scan /entity/<word> ran before
// it read the search index's postings: every phrase of the snapshot's
// list, re-tokenized, kept when one of its tokens equals token, ranked by
// score, display and path and capped at profileCap. It stays here as the
// oracle for the postings lookup.
func scanPhrasesWithToken(phrases []search.Phrase, token string) []phraseHit {
	var out []phraseHit
	for _, p := range phrases {
		for _, t := range textkit.Tokenize(textkit.Fold(p.Display)) {
			if t == token {
				out = append(out, phraseHit{Path: p.Path, Display: p.Display, Score: p.Score})
				break
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].Display != out[b].Display {
			return out[a].Display < out[b].Display
		}
		return out[a].Path < out[b].Path
	})
	if len(out) > profileCap {
		out = out[:profileCap]
	}
	return out
}

// TestPhrasesWithTokenOracle checks the postings lookup of /entity/<word>
// against the scan for every vocabulary word and every phrase token of
// every golden fixture, and the folded-name lookup of /entity/<phrase>
// against a scan for every phrase display.
func TestPhrasesWithTokenOracle(t *testing.T) {
	for name, snap := range phraseGoldenFixtures(t) {
		s, err := New(snap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a := s.cur.Load()
		phrases := search.SourceFromSnapshot(snap).Phrases
		tokens := map[string]bool{"": true, "zzz": true}
		for _, w := range snap.Vocab {
			tokens[textkit.Fold(w)] = true
		}
		for _, p := range phrases {
			for _, tok := range textkit.Tokenize(p.Display) {
				tokens[tok] = true
			}
		}
		for tok := range tokens {
			got := rankPhrases(phraseHits(a.index, a.index.WithToken(tok)), profileCap)
			if want := scanPhrasesWithToken(phrases, tok); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("%s: postings of %q = %v, scan = %v", name, tok, got, want)
			}
		}
		for _, p := range phrases {
			var want []phraseHit
			for _, q := range phrases {
				if textkit.Fold(q.Display) == textkit.Fold(p.Display) {
					want = append(want, phraseHit{Path: q.Path, Display: q.Display, Score: q.Score})
				}
			}
			if got := phraseHits(a.index, a.index.WithName(p.Display)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: occurrences of %q = %v, scan = %v", name, p.Display, got, want)
			}
		}
		s.Close()
	}
}

// TestPhraseLookupDuplicatePaths serves a hierarchy whose two children
// share a path. Each node's own phrases are listed once: the lookups
// read the index, which walks the nodes, not a path-keyed node map (that
// listed the last such node's phrases twice and the first's never).
func TestPhraseLookupDuplicatePaths(t *testing.T) {
	snap := testSnapshot(t)
	snap.RolePhrases = nil
	snap.Hierarchy.Root.Children[1].Path = "o/1"
	s, err := New(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct{ target, want string }{
		{"/phrases/search?q=n",
			`{"hits":[{"path":"o/1","display":"query processing","score":3},{"path":"o/1","display":"network learning","score":2}],"query":"n"}`},
		{"/entity/learning", `"phrases":[{"path":"o/1","display":"network learning","score":2}]`},
		{"/entity/query", `"phrases":[{"path":"o/1","display":"query processing","score":3}]`},
		{"/entity/" + url.PathEscape("network learning"), `"occurrences":[{"path":"o/1","display":"network learning","score":2}]`},
		{"/entity/" + url.PathEscape("query processing"), `"occurrences":[{"path":"o/1","display":"query processing","score":3}]`},
	} {
		rec := s.serveOnce(t, http.MethodGet, c.target, nil)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s = %d %s, want it to hold %s", c.target, rec.Code, rec.Body, c.want)
		}
	}
}
