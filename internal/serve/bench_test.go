package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lesm/internal/core"
	"lesm/internal/lda"
	"lesm/internal/search"
	"lesm/internal/store"
)

// benchInfer measures /infer requests per second end to end (HTTP decode,
// semaphore, fold-in, JSON encode) at a given fold-in parallelism.
func benchInfer(b *testing.B, p int) {
	s, err := New(testSnapshot(b), Options{P: p, MaxInFlight: 8})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A 32-document batch of 8-token docs per request.
	ids := make([][]int, 32)
	for i := range ids {
		ids[i] = []int{i % 10, (i + 1) % 10, (i + 2) % 10, (i + 3) % 10, i % 10, (i + 5) % 10, (i + 6) % 10, (i + 7) % 10}
	}
	body, _ := json.Marshal(map[string]any{"seed": 7, "ids": ids, "sweeps": 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func BenchmarkInferP1(b *testing.B)      { benchInfer(b, 1) }
func BenchmarkInferPNumCPU(b *testing.B) { benchInfer(b, runtime.GOMAXPROCS(0)) }

// benchInferConcurrent measures /infer under concurrent single-document
// clients and reports p50 and p99 request latency alongside the standard
// throughput numbers.
func benchInferConcurrent(b *testing.B, opt Options) {
	s, err := New(testSnapshot(b), opt)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"seed": 7, "ids": [][]int{{0, 1, 2, 3, 5, 6, 7, 8}}, "sweeps": 20})
	var mu sync.Mutex
	var lats []time.Duration
	// 8 client goroutines per GOMAXPROCS, so requests overlap even on
	// 1-CPU runners.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
			d := time.Since(t0)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}
	})
	b.StopTimer()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)/2])/1e6, "p50-ms")
		b.ReportMetric(float64(lats[len(lats)*99/100])/1e6, "p99-ms")
	}
}

// BenchmarkInferConcurrent: 8 in-flight slots with head room.
func BenchmarkInferConcurrent(b *testing.B) {
	benchInferConcurrent(b, Options{MaxInFlight: 8})
}

// BenchmarkInferSaturated: a single in-flight slot models a pool with no
// head room, so requests queue for it.
func BenchmarkInferSaturated(b *testing.B) {
	benchInferConcurrent(b, Options{MaxInFlight: 1})
}

// syllableWord is the i-th of a run of distinct pronounceable words, two
// or more consonant-vowel syllables: the digits of i+90 in base 90, one
// syllable per digit.
func syllableWord(i int) string {
	const cons, vows = "bcdfghjklmnprstvwz", "aeiou"
	var w []byte
	for n := i + 90; n > 0; n /= 90 {
		w = append(w, cons[n%90/5], vows[n%5])
	}
	return string(w)
}

// k200Snapshot is a K=200, V=2000 Gibbs topics section (Phi equal to the
// counts' smoothing, as a fit writes it) with or without the foldin
// section lesm.Save adds, plus what the entity index is built from: a
// vocabulary of V syllable words, V/3 two-word phrases on a two-level
// hierarchy and V/10 authors, labeled through an author entity type. It
// is written to dir and opened through the mmap path as lesmd -mmap opens
// it.
func k200Snapshot(b *testing.B, dir string, section bool) *store.Snapshot {
	const k, v = 200, 2000
	t := &store.Topics{K: k, V: v, Alpha: 0.25, Beta: 0.01, Weight: make([]float64, k), NK: make([]int, k)}
	for topic := 0; topic < k; topic++ {
		row := make([]int, v)
		for w := range row {
			row[w] = (w*31 + topic*17) % 13
			if (w+topic)%5 == 0 {
				row[w] += 40
			}
			t.NK[topic] += row[w]
		}
		t.NKV = append(t.NKV, row)
		t.Weight[topic] = 1 / float64(k)
	}
	t.Phi = lda.FoldInModelFromCounts(t.NKV, t.NK, 0, t.Beta).PhiLike
	vocab := make([]string, v)
	for w := range vocab {
		vocab[w] = syllableWord(w)
	}
	h := core.NewHierarchy()
	const authorType = core.TypeID(1)
	h.TypeNames[authorType] = "author"
	for c := 0; c < 4; c++ {
		h.Root.AddChild()
	}
	for i := 0; i < v/3; i++ {
		n := h.Root.Children[i%len(h.Root.Children)]
		w1, w2 := (i*7)%v, (i*13+5)%v
		n.Phrases = append(n.Phrases, core.RankedPhrase{Words: []int{w1, w2}, Display: vocab[w1] + " " + vocab[w2], Score: float64(v - i)})
	}
	var authors []core.RankedEntity
	for id := 0; id < v/10; id++ {
		authors = append(authors, core.RankedEntity{ID: id, Display: strings.ToUpper(vocab[id][:1]) + vocab[id][1:] + " " + vocab[v-1-id], Score: 1})
	}
	h.Root.Entities[authorType] = authors
	snap := &store.Snapshot{Vocab: vocab, Topics: t, Hierarchy: h}
	if section {
		snap.FoldIn = store.NewFoldIn(snap.FoldInModel(lda.DefaultFoldInAlpha), lda.DefaultFoldInAlpha)
	}
	path := dir + "/k200.lesm"
	if err := store.Write(path, snap); err != nil {
		b.Fatal(err)
	}
	m, err := store.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m.Snapshot()
}

// BenchmarkBuildArtifact times one generation's artifact build over a
// mapped K=200 snapshot at lesmd's defaults, with the foldin section
// (tables adopted from the mapping) and without it (tables built), and
// reports the heap one built artifact keeps live as heap-B/artifact, and
// the part of it one search index keeps, per entry, as index-B/entry.
func BenchmarkBuildArtifact(b *testing.B) {
	for _, section := range []bool{true, false} {
		name := "section"
		if !section {
			name = "no-section"
		}
		b.Run(name, func(b *testing.B) {
			snap := k200Snapshot(b, b.TempDir(), section)
			opt := Options{}.withDefaults()
			heapNow := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			base := heapNow()
			var a *artifact
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if a, err = buildArtifact(snap, opt, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if v := len(snap.Vocab); a.index.Entries() != v+v/3+v/10 {
				b.Fatalf("index holds %d entries, want V + V/3 + V/10 = %d", a.index.Entries(), v+v/3+v/10)
			}
			b.ReportMetric(float64(int64(heapNow())-int64(base)), "heap-B/artifact")
			base = heapNow()
			ix := search.FromSnapshot(snap)
			b.ReportMetric(float64(int64(heapNow())-int64(base))/float64(ix.Entries()), "index-B/entry")
			runtime.KeepAlive(a)
			runtime.KeepAlive(ix)
		})
	}
}
