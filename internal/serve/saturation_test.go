package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestSaturationShedsAndRecovers is the overload lock-in, the acceptance
// test of the admission-control design: drive 4× the system capacity
// (MaxInFlight + MaxQueue) of concurrent /infer requests into a server
// whose in-flight slots are pinned busy, and require that
//
//   - exactly capacity requests are admitted — the queue is bounded;
//   - every excess request is shed deterministically with 503 and a
//     Retry-After header, before its body is even read;
//   - a mid-saturation /metrics scrape reports the exact shed count and
//     the exact admitted/in-flight/queue-depth gauges;
//   - once the slots free, every admitted request completes 200 — no
//     admitted request is ever failed by overload (zero 5xx on admitted);
//   - after the storm drains, the goroutine count returns to the
//     pre-storm baseline (nothing leaks per shed or per admitted request).
//
// The storm runs against the direct /infer path, the only one the server has.
func TestSaturationShedsAndRecovers(t *testing.T) {
	t.Run("direct", testSaturationDirect)
}

func testSaturationDirect(t *testing.T) {
	const (
		inflight = 2
		queue    = 4
		capacity = inflight + queue
		total    = 4 * capacity
	)
	s, err := New(testSnapshot(t), Options{MaxInFlight: inflight, MaxQueue: queue})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Baseline with the server's own goroutines already running.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// Pin every in-flight slot busy: nothing admitted can complete
	// until we release, so admission fills to exactly capacity and
	// every further request must shed.
	for i := 0; i < inflight; i++ {
		s.inferSem <- struct{}{}
	}

	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, total)
	for i := 0; i < total; i++ {
		go func(i int) {
			resp, err := http.Post(ts.URL+"/infer", "application/json",
				bytes.NewReader(inferBody(t, int64(i), [][]int{{0, 1, 2}}, 3)))
			if err != nil {
				t.Error(err)
				results <- result{}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// While the slots are pinned, admitted requests cannot answer —
	// so the first total-capacity responses are exactly the sheds.
	for i := 0; i < total-capacity; i++ {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("shed response %d: status %d, want 503", i, r.status)
		}
		if r.retryAfter == "" {
			t.Fatalf("shed response %d carries no Retry-After", i)
		}
	}

	// Mid-saturation scrape: the sheds all happened (we hold their
	// responses) and the admitted set is pinned in place, so the
	// gauges are exact, not racy.
	got := scrape(t, ts.URL)
	if v := got[`lesmd_infer_shed_total`]; v != total-capacity {
		t.Errorf("shed_total = %g, want %d", v, total-capacity)
	}
	if v := got[`lesmd_infer_admitted`]; v != capacity {
		t.Errorf("admitted = %g, want %d (bounded queue overflowed)", v, capacity)
	}
	if v := got[`lesmd_infer_in_flight`]; v != inflight {
		t.Errorf("in_flight = %g, want %d", v, inflight)
	}
	if v := got[`lesmd_infer_queue_depth`]; v != queue {
		t.Errorf("queue_depth = %g, want %d", v, queue)
	}

	// Release the slots: every admitted request must now complete
	// 200 — admission never fails a request it accepted.
	for i := 0; i < inflight; i++ {
		<-s.inferSem
	}
	for i := 0; i < capacity; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request answered %d, want 200", r.status)
		}
	}

	got = scrape(t, ts.URL)
	if v := got[`lesmd_infer_admitted`]; v != 0 {
		t.Errorf("post-drain admitted = %g, want 0", v)
	}
	if v := got[`lesmd_infer_requests_total`]; v != capacity {
		t.Errorf("infer_requests_total = %g, want %d", v, capacity)
	}
	if v := got[`lesmd_http_requests_total{route="infer"}`]; v != total {
		t.Errorf("infer route requests = %g, want %d", v, total)
	}
	if v := got[`lesmd_http_errors_total{route="infer",code="503"}`]; v != total-capacity {
		t.Errorf("infer 503s = %g, want %d", v, total-capacity)
	}

	// Goroutine drain: the storm must leave nothing behind. Idle
	// keep-alive client conns hold goroutines on both ends; close
	// them before comparing.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines grew across the saturation storm: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
