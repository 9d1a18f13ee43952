package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"lesm/internal/store"
)

// waitGoroutines waits up to 3s for the goroutine count to fall back to
// baseline and fails with every stack if it does not.
func waitGoroutines(t *testing.T, baseline int, after string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after %s: %d > baseline %d\n%s",
			after, n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// settledGoroutines is the goroutine count once the runtime has settled.
func settledGoroutines() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestCloseReleasesGoroutines is the stdlib goroutine leak check for the
// whole background machinery: the reload poller and the runtime-metrics
// collector must both exit on Options.Ctx cancel alone, with /infer and
// reloads driven through the live server first.
func TestCloseReleasesGoroutines(t *testing.T) {
	baseline := settledGoroutines()

	path := t.TempDir() + "/model.lesm"
	if err := store.Write(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(testSnapshot(t), Options{
		RouteTimeout: time.Second,
		SnapshotPath: path,
		ReloadPoll:   2 * time.Millisecond,
		Ctx:          ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive inference and reloads through the live machinery without any
	// network goroutines.
	for i := 0; i < 3; i++ {
		if rec := s.serveOnce(t, http.MethodPost, "/infer", inferBody(t, int64(i), [][]int{{0, 1, 2}}, 3)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if rec := s.serveOnce(t, http.MethodPost, "/admin/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("admin reload: status %d (%s)", rec.Code, rec.Body.String())
	}

	// Ctx cancel alone must stop the poller and the collector (Close
	// additionally releases mappings).
	cancel()
	waitGoroutines(t, baseline, "ctx cancel")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseStopsMetricsCollector: without Options.Ctx, Close alone stops
// the runtime-metrics collector — no goroutine survives it.
func TestCloseStopsMetricsCollector(t *testing.T) {
	baseline := settledGoroutines()

	s, err := New(testSnapshot(t), Options{RouteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rec := s.serveOnce(t, http.MethodPost, "/infer", inferBody(t, int64(i), [][]int{{0, 1, 2}}, 3)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if rec := s.serveOnce(t, http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline, "Close")
}
