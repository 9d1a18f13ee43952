package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clientConns is the load generator's connection budget: one keep-alive
// connection per worker, never more than the machine's CPU count of 2.
const clientConns = 2

// client is the benchmark's HTTP side: one process, at most clientConns
// keep-alive connections to the loopback listener.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns,
		DisableCompression: true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the full body; the body
// is always drained so the connection is reused.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON GETs path and decodes a 2xx JSON body into v.
func (c *client) getJSON(path string, v any) error {
	code, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// request is one timed request of a traffic mix.
type request struct {
	method string
	path   string
	body   []byte
	infer  bool // POST /infer (else a lookup GET)
}

// send issues r and reports whether it succeeded: a 2xx whose body parses.
func (c *client) send(r request) bool {
	code, b, err := c.do(r.method, r.path, r.body)
	return err == nil && code/100 == 2 && json.Valid(b)
}

// sample is one timed request: when its latency clock started, how long
// it took and whether it succeeded.
type sample struct {
	at    time.Time
	lat   time.Duration
	ok    bool
	infer bool
}

// phase is the outcome of one traffic phase.
type phase struct {
	samples   []sample
	overshoot []time.Duration // sleep overshoot of idle workers
	backlog   int             // requests due by the phase end but not yet sent
	unsent    int             // requests never sent (deadline passed)
	wall      time.Duration
}

func (p *phase) attempted() int { return len(p.samples) + p.unsent }

func (p *phase) failed() int {
	n := p.unsent
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies of the successful samples that pass keep
// (nil keeps all), sorted.
func (p *phase) latencies(keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if s.ok && (keep == nil || keep(s)) {
			out = append(out, s.lat)
		}
	}
	sortDurations(out)
	return out
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, and whichever of the clientConns workers is free sends
// it. A request that waited for a busy worker is timed from its due time,
// so a stall is charged to every request it delays; a worker that was idle
// sleeps until the due time and is timed from the actual send, because a
// sub-millisecond sleep overshoots by about a millisecond and would
// otherwise swamp sub-millisecond responses.
func openLoop(c *client, rate float64, dur time.Duration, next func(i int) request) *phase {
	n := int(rate * dur.Seconds())
	start := time.Now()
	end := start.Add(dur)
	deadline := end.Add(5 * time.Second)
	p := &phase{samples: make([]sample, 0, n)}
	var (
		mu   sync.Mutex
		idx  atomic.Int64
		wg   sync.WaitGroup
		late atomic.Int64
	)
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				now := time.Now()
				if now.After(deadline) {
					mu.Lock()
					p.unsent++
					mu.Unlock()
					continue
				}
				t0 := due
				var over time.Duration
				slept := now.Before(due)
				if slept {
					time.Sleep(due.Sub(now))
					t0 = time.Now()
					over = t0.Sub(due)
				} else if now.After(end) {
					late.Add(1)
				}
				r := next(i)
				ok := c.send(r)
				s := sample{at: t0, lat: time.Since(t0), ok: ok, infer: r.infer}
				mu.Lock()
				p.samples = append(p.samples, s)
				if slept {
					p.overshoot = append(p.overshoot, over)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.backlog = int(late.Load())
	p.wall = time.Since(start)
	return p
}

// closedLoop keeps every worker busy back to back for dur and returns the
// completed requests; their count over the wall time is the highest rate
// the server sustains with clientConns connections.
func closedLoop(c *client, dur time.Duration, next func(i int) request) *phase {
	start := time.Now()
	end := start.Add(dur)
	p := &phase{}
	var (
		mu  sync.Mutex
		idx atomic.Int64
		wg  sync.WaitGroup
	)
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := next(int(idx.Add(1) - 1))
				t0 := time.Now()
				ok := c.send(r)
				s := sample{at: t0, lat: time.Since(t0), ok: ok, infer: r.infer}
				mu.Lock()
				p.samples = append(p.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// quantile returns the q-quantile of sorted durations (nearest rank), or 0
// for none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
}
