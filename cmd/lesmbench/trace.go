package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"lesm"
)

// span is one timed call into a layer, made from the benchmark's own code:
// the program itself carries no spans.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = top level
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// still times calls (the workloads need the durations) but records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// time runs fn as span name under parent and returns its wall time. fn
// receives the span's id, for children.
func (t *tracer) time(name string, parent int, fn func(id int) error) (time.Duration, error) {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
		t.mu.Unlock()
	}
	return end.Sub(start), err
}

// writeJSONL writes the recorded spans, ordered by start, one per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRec is the public lesm.Recorder the traced run attaches to the
// fit: it keeps the per-sweep and per-pass telemetry the engines already
// emit, for the per-layer table.
type layerRec struct {
	mu    sync.Mutex
	cathy []lesm.SweepStats
	lda   []lesm.SweepStats
	pool  lesm.PoolStats
	pass  int
}

func (r *layerRec) RecordSweep(s lesm.SweepStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch s.Engine {
	case "cathy":
		r.cathy = append(r.cathy, s)
	case "lda":
		r.lda = append(r.lda, s)
	}
}

func (r *layerRec) RecordPool(p lesm.PoolStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pass++
	r.pool.Wait += p.Wait
	r.pool.Exec += p.Exec
}

// heapSampler records how far the live heap — what the last completed GC
// found reachable — rises above its level at start, sampled from
// runtime/metrics every 50 ms until stop. The sample only moves when a GC
// completes, so the peak it sees depends on GC timing: good enough for a
// per-layer figure, too coarse for a bounded one.
type heapSampler struct {
	stopc      chan struct{}
	done       chan struct{}
	base, peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the live heap. The second GC
// empties what sync.Pool victim caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readLiveHeap()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.base = liveHeap()
	h.peak = h.base
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				h.peak = max(h.peak, readLiveHeap())
				return
			case <-t.C:
				h.peak = max(h.peak, readLiveHeap())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak rise in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(int64(h.peak)-int64(h.base)) / (1 << 20)
}
