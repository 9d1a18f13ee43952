package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lesm/internal/store"
)

// altSnapshot is testSnapshot with a visibly different topic model (three
// topics instead of two), so a swap is observable on every route.
func altSnapshot(t testing.TB) *store.Snapshot {
	t.Helper()
	snap := testSnapshot(t)
	t3 := &store.Topics{K: 3, V: snap.Topics.V,
		Weight: []float64{0.4, 0.4, 0.2},
		Alpha:  snap.Topics.Alpha, Beta: snap.Topics.Beta}
	for k := 0; k < 3; k++ {
		phi := make([]float64, t3.V)
		nkv := make([]int, t3.V)
		nk := 0
		for w := range phi {
			c := 1 + (w+3*k)%7
			nkv[w] = c
			nk += c
		}
		for w := range phi {
			phi[w] = (float64(nkv[w]) + t3.Beta) / (float64(nk) + float64(t3.V)*t3.Beta)
		}
		t3.Phi = append(t3.Phi, phi)
		t3.NKV = append(t3.NKV, nkv)
		t3.NK = append(t3.NK, nk)
	}
	snap.Topics = t3
	return snap
}

func (s *Server) serveOnce(t testing.TB, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestAdminReloadSwapsGeneration: POST /admin/reload picks up a replaced
// snapshot file, bumps the generation, and /infer answers from the new
// model; a second forced reload of the unchanged file still succeeds.
func TestAdminReloadSwapsGeneration(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(testSnapshot(t), Options{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body := inferBody(t, 9, [][]int{{0, 1, 2, 3}}, 10)
	rec := s.serveOnce(t, http.MethodPost, "/infer", body)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"generation":1`) {
		t.Fatalf("gen-1 infer: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"topics":2`) {
		t.Fatalf("gen-1 topics: %s", rec.Body.String())
	}

	if err := store.Write(path, altSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	rec = s.serveOnce(t, http.MethodPost, "/admin/reload", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reloaded":true`) {
		t.Fatalf("admin reload: %d %s", rec.Code, rec.Body.String())
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	rec = s.serveOnce(t, http.MethodPost, "/infer", body)
	if !strings.Contains(rec.Body.String(), `"generation":2`) || !strings.Contains(rec.Body.String(), `"topics":3`) {
		t.Fatalf("gen-2 infer did not see the new model: %s", rec.Body.String())
	}

	// Forced reload with no change still swaps (operator semantics).
	rec = s.serveOnce(t, http.MethodPost, "/admin/reload", nil)
	if rec.Code != http.StatusOK || s.Generation() != 3 {
		t.Fatalf("forced no-change reload: %d gen=%d", rec.Code, s.Generation())
	}
	// GET is not allowed; unconfigured path is a 409 (fresh server).
	if rec := s.serveOnce(t, http.MethodGet, "/admin/reload", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d", rec.Code)
	}
	s2, err := New(testSnapshot(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusConflict {
		t.Fatalf("pathless reload = %d", rec.Code)
	}
}

// TestPollerPicksUpReplacedSnapshot: the mtime/size poller must notice an
// atomically replaced file and swap without any admin call; an unchanged
// file must NOT bump the generation.
func TestPollerPicksUpReplacedSnapshot(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(testSnapshot(t), Options{SnapshotPath: path, ReloadPoll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// No change: generation must hold across several poll intervals.
	time.Sleep(50 * time.Millisecond)
	if g := s.Generation(); g != 1 {
		t.Fatalf("poller reloaded an unchanged file: gen = %d", g)
	}

	if err := store.Write(path, altSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() == 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("poller missed the replaced snapshot: gen = %d", g)
	}

	// A broken replacement must not take down serving: the old artifact
	// stays live and the error is surfaced on /healthz.
	if err := writeCorrupt(path); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rec := s.serveOnce(t, http.MethodGet, "/healthz", nil)
		if strings.Contains(rec.Body.String(), "reload_error") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec := s.serveOnce(t, http.MethodGet, "/healthz", nil)
	if !strings.Contains(rec.Body.String(), "reload_error") {
		t.Fatalf("corrupt replacement not surfaced: %s", rec.Body.String())
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("corrupt replacement changed the serving artifact: gen = %d", g)
	}
	if rec := s.serveOnce(t, http.MethodGet, "/topics", nil); rec.Code != http.StatusOK {
		t.Fatalf("serving broken after failed reload: %d", rec.Code)
	}
}

// writeCorrupt clobbers the file with a CRC-corrupt but superficially
// valid snapshot.
func writeCorrupt(path string) error {
	b, err := store.Encode(&store.Snapshot{Vocab: []string{"x", "y"}})
	if err != nil {
		return err
	}
	b[len(b)-1] ^= 0xff
	return os.WriteFile(path, b, 0o644)
}

// TestMMapReloadServesAndCloses: the mmap decode path serves queries and
// hot reloads; replaced mappings stay readable until Close.
func TestMMapReloadServesAndCloses(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m.Snapshot(), Options{SnapshotPath: path, MMap: true})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	// Adopt the initial mapping the same way reloads are adopted.
	s.AdoptCloser(m)

	body := inferBody(t, 4, [][]int{{0, 1, 3}, {5, 8}}, 10)
	rec := s.serveOnce(t, http.MethodPost, "/infer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("mmap infer: %d %s", rec.Code, rec.Body.String())
	}
	first := rec.Body.String()

	// Two reloads over replaced files; old generations' mappings are
	// retired, and the original model served again must answer the same.
	if err := store.Write(path, altSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("mmap reload 1: %d %s", rec.Code, rec.Body.String())
	}
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("mmap reload 2: %d %s", rec.Code, rec.Body.String())
	}
	rec = s.serveOnce(t, http.MethodPost, "/infer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload infer: %d", rec.Code)
	}
	got := strings.ReplaceAll(rec.Body.String(), `"generation":3`, `"generation":1`)
	if got != first {
		t.Fatalf("same model at a later generation answered differently:\n%s\n%s", got, first)
	}
	if len(s.retired) != 2 {
		t.Fatalf("retired mappings = %d, want 2", len(s.retired))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestReloadErrorClearsOnSuccess is the regression test for the stale
// reload_error bug: a failed reload surfaced the error on /healthz, but a
// later successful reload through the direct Reload path never cleared
// it, so /healthz kept reporting a failure that had long been fixed. The
// clear now lives in reloadLocked — the ONE place a swap actually lands —
// so every reload path (admin, poller, direct) clears it, and no-op
// poller ticks cannot.
func TestReloadErrorClearsOnSuccess(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(testSnapshot(t), Options{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fail a reload: /healthz must surface the error.
	if err := writeCorrupt(path); err != nil {
		t.Fatal(err)
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: %d", rec.Code)
	}
	rec := s.serveOnce(t, http.MethodGet, "/healthz", nil)
	if !strings.Contains(rec.Body.String(), "reload_error") {
		t.Fatalf("failed reload not surfaced: %s", rec.Body.String())
	}

	// A successful reload through the DIRECT path (the one that never
	// cleared before the fix) must wipe the standing error.
	if err := s.Reload(altSnapshot(t), nil); err != nil {
		t.Fatal(err)
	}
	rec = s.serveOnce(t, http.MethodGet, "/healthz", nil)
	if strings.Contains(rec.Body.String(), "reload_error") {
		t.Fatalf("reload_error outlived a successful reload: %s", rec.Body.String())
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}

	// And back again: the error is re-set by the next failure (not stuck
	// cleared), then cleared by a successful path-driven reload.
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("second corrupt reload: %d", rec.Code)
	}
	if rec := s.serveOnce(t, http.MethodGet, "/healthz", nil); !strings.Contains(rec.Body.String(), "reload_error") {
		t.Fatalf("second failure not surfaced: %s", rec.Body.String())
	}
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("repaired reload: %d %s", rec.Code, rec.Body.String())
	}
	if rec := s.serveOnce(t, http.MethodGet, "/healthz", nil); strings.Contains(rec.Body.String(), "reload_error") {
		t.Fatalf("reload_error outlived the repaired admin reload: %s", rec.Body.String())
	}
}

// TestRetiredSnapshotCollected: a mapped generation replaced by a hot
// reload leaves only its mapping behind. Once no request reads it, its
// decoded snapshot — vocabulary strings, hierarchy, phrases — must be
// garbage, both for the initial generation (whose closer came in through
// AdoptCloser) and for one that was itself swapped in by a reload. The
// mappings stay open until Close.
func TestRetiredSnapshotCollected(t *testing.T) {
	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	watch := func(snap *store.Snapshot) {
		runtime.SetFinalizer(snap, func(*store.Snapshot) { collected.Add(1) })
	}
	snap, closer, err := LoadSnapshot(path, true)
	if err != nil {
		t.Fatal(err)
	}
	watch(snap)
	s, err := New(snap, Options{SnapshotPath: path, MMap: true})
	if err != nil {
		closer.Close()
		t.Fatal(err)
	}
	snap = nil
	s.AdoptCloser(closer)
	defer s.Close()

	if err := store.Write(path, altSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadFromPath(true); err != nil {
		t.Fatal(err)
	}
	watch(s.cur.Load().snap)
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadFromPath(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	if n := collected.Load(); n != 2 {
		t.Fatalf("%d of 2 replaced generations' snapshots collected; a retired handle still refers to the others", n)
	}
	if rec := s.serveOnce(t, http.MethodGet, "/topics", nil); rec.Code != http.StatusOK {
		t.Fatalf("current generation broken after the old ones were collected: %d", rec.Code)
	}
}
