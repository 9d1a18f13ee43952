package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRouteTimeoutQueuedInfer: a request parked behind the in-flight
// semaphore must drop out of the queue when its per-route timeout expires
// — the slot holder is unaffected and the waiter gets a 503.
func TestRouteTimeoutQueuedInfer(t *testing.T) {
	ts, s := newTestServerPair(t, Options{MaxInFlight: 1, RouteTimeout: 100 * time.Millisecond})
	s.inferSem <- struct{}{} // the only slot stays busy for the whole test
	defer func() { <-s.inferSem }()

	start := time.Now()
	status, out := postInfer(t, ts.URL, inferBody(t, 1, [][]int{{0, 1, 2}}, 3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queued request past its timeout: status %d (%v)", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "inference slot") {
		t.Fatalf("unexpected error message: %v", out)
	}
	// It waited out the timeout (not shed instantly) but not forever.
	if d := time.Since(start); d < 50*time.Millisecond || d > 10*time.Second {
		t.Fatalf("queued timeout fired after %s", d)
	}
}

// TestRouteTimeoutAbortsRunningFoldIn: the timeout must cancel fold-in
// work already sampling, not just queued waiters — the batch aborts at its
// next inter-chunk cancellation check and answers 503.
func TestRouteTimeoutAbortsRunningFoldIn(t *testing.T) {
	// P=1 pins the fold-in serial regardless of the host's core count:
	// the request below runs for well over a second without the timeout
	// (about 1.8 s on one core of a 2-vCPU x86 machine), an order of
	// magnitude past the deadline, so a fast 503 proves the abort, not
	// the workload finishing.
	ts, _ := newTestServerPair(t, Options{RouteTimeout: 150 * time.Millisecond, P: 1})
	// 256 documents × 400 tokens × 500 sweeps, split into 32 chunks with a
	// cancellation check before each: completing inside 150ms is
	// impossible, aborting within one chunk of the deadline is guaranteed.
	ids := make([][]int, 256)
	for i := range ids {
		doc := make([]int, 400)
		for j := range doc {
			doc[j] = (i + j) % 10
		}
		ids[i] = doc
	}
	start := time.Now()
	status, out := postInfer(t, ts.URL, inferBody(t, 7, ids, 500))
	elapsed := time.Since(start)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("oversized request: status %d after %s (%v)", status, elapsed, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "aborted") {
		t.Fatalf("expected a mid-sampling abort, got: %v", out)
	}
	// Generous bound: the abort must come from the timeout, not from the
	// sampling finishing (which takes far longer than 10s under -race).
	if elapsed > 10*time.Second {
		t.Fatalf("abort took %s — cancellation not reaching the sampler", elapsed)
	}
}

// TestRouteTimeoutExpiredBeforeSlot: a request whose deadline expired
// before it reached the slot gate (e.g. during a slow body decode) while a
// slot is free must be reported as an aborted fold-in, never as a slot
// wait that did not happen. A single blocking select over "slot free" and
// "context done" picks between the two at random, so the loop makes a
// regression all but certain to show.
func TestRouteTimeoutExpiredBeforeSlot(t *testing.T) {
	s, err := New(testSnapshot(t), Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	body := inferBody(t, 1, [][]int{{0, 1, 2}}, 3)
	for i := 0; i < 50; i++ {
		req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
		if msg := rec.Body.String(); !strings.Contains(msg, "inference aborted") {
			t.Fatalf("attempt %d: expired request with a free slot blamed on: %s", i, msg)
		}
		if n := len(s.inferSem); n != 0 {
			t.Fatalf("attempt %d: %d slots still held after the abort", i, n)
		}
	}
}

// TestRouteTimeoutLeavesFastRoutesAlone: structure lookups answer far
// inside any reasonable timeout; instrumenting them with a deadline must
// not break them.
func TestRouteTimeoutLeavesFastRoutesAlone(t *testing.T) {
	ts := newTestServer(t, Options{RouteTimeout: 2 * time.Second})
	for _, route := range structureRoutes {
		getJSON(t, ts.URL+route, http.StatusOK)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	scrape(t, ts.URL)
	postJSON(t, ts.URL+"/infer", map[string]any{"seed": 1, "ids": [][]int{{0, 1}}}, http.StatusOK)
}
