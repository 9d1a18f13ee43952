package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"lesm"
	"lesm/internal/serve"
	"lesm/internal/store"
	"lesm/internal/textkit"
)

// mix is a workload's request kinds.
type mix int

const (
	lookupsOnly mix = iota // the GET mix
	inferOnly              // POST /infer
	alternate              // infer and lookup in turn
)

// workload is one measured operation and one traffic mix against the
// serving model (see doc.go for why each exists).
type workload struct {
	name    string
	large   bool    // the measured fit is the large corpus's, which nothing serves
	rate    float64 // nominal open-loop rate, req/s
	mix     mix
	reloads bool // publish a model and reload it throughout the traffic
}

var workloads = []workload{
	// fit's traffic is lookup's: it only fills the serving metrics every
	// timed run reports (doc.go).
	{name: "fit", large: true, rate: 400, mix: lookupsOnly},
	{name: "infer", rate: 300, mix: inferOnly},
	{name: "lookup", rate: 400, mix: lookupsOnly},
	{name: "reload", rate: 150, mix: alternate, reloads: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config sizes a run. full is what the command runs; the smoke test
// shrinks it.
type config struct {
	smallPapers, largePapers int
	seconds                  time.Duration // traffic window
	setupReps                int           // bring-ups whose median is setup_s
	publishes                int           // publishes after traffic, off the reload workload
	inferPool, lookupPool    int           // distinct requests, cycled
	probes                   int           // /infer bodies checked against in-process Infer
	replays                  int           // requests per traced direct/HTTP replay
	workDir                  string        // snapshots live under here
}

func fullConfig(seconds time.Duration) config {
	return config{
		smallPapers: smallPapers, largePapers: largePapers, seconds: seconds,
		setupReps: 9, publishes: 9, inferPool: 512, lookupPool: 2048,
		probes: 8, replays: 400, workDir: ".bench_build",
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one workload run's state.
type runner struct {
	cfg  config
	w    workload
	seed int64
	p    int
	tr   *tracer
	res  *runResult
}

func (r *runner) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one output check.
func (r *runner) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		if len(r.res.Problems) < 20 {
			r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
		}
	}
}

// count folds a traffic phase into attempted/failed.
func (r *runner) count(p *phase) {
	r.res.Attempted += p.attempted()
	if f := p.failed(); f > 0 {
		r.res.Failed += f
		r.res.Problems = append(r.res.Problems, fmt.Sprintf("%d of %d requests failed (non-2xx, transport error or unparseable body)", f, p.attempted()))
	}
}

// runWorkload runs one workload end to end: generate, fit, check, bring
// the serving model up, drive traffic, publish, and, when tr is on, replay
// each layer. Timed runs (tracer off) report the end-to-end metrics; traced
// runs attach the recorders and report the per-layer metrics too.
func runWorkload(cfg config, w workload, seed int64, tr *tracer) (*runResult, error) {
	r := &runner{cfg: cfg, w: w, seed: seed, p: runtime.GOMAXPROCS(0), tr: tr,
		res: &runResult{Workload: w.name, Seed: seed, Trace: tr.on, Metrics: map[string]metric{}}}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	si, err := r.prepare(dir)
	if err != nil {
		return nil, err
	}
	if err := r.serve(si); err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// servingInputs is what the serving half of a run needs. The fit's corpus
// and in-memory models are not among them, so they are garbage before the
// server comes up and the traffic runs against a heap like a real
// server's: the server's own plus the request pools.
type servingInputs struct {
	path    string   // the served snapshot
	sources []string // snapshot files publishes copy over path, in turn
	bodies  [][]byte // /infer request bodies
	lookups []lookupQuery
	probes  []probe
	replay  *replayInputs // traced runs only
}

// probe is one /infer body with the answer in-process Artifact.Infer gave.
type probe struct {
	body  []byte
	theta [][]float64
}

// replayInputs is what the traced run's direct fold-in replay needs.
type replayInputs struct {
	topics *lesm.TopicModel
	vocab  *lesm.Vocabulary
	reqs   []inferBody
}

// prepare runs the workload's measured fit, fits and saves the serving
// model (and, on reload, the second one) and builds the request pools.
func (r *runner) prepare(dir string) (*servingInputs, error) {
	if r.w.large {
		large := filepath.Join(dir, "large.lesm")
		in, _ := genCorpus(r.seed, r.cfg.largePapers)
		if _, err := r.fitModel(in, large, true); err != nil {
			return nil, err
		}
		if err := os.Remove(large); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(dir, "model.lesm")
	in, tl := genCorpus(r.seed, r.cfg.smallPapers)
	fr, err := r.fitModel(in, path, !r.w.large)
	if err != nil {
		return nil, err
	}

	// Publishing copies a snapshot saved beforehand over the served path,
	// as a deploy ships a file fitted elsewhere: saving inside the serving
	// process would put encode bursts into its GC that no real server pays.
	// The fitted snapshot keeps a second name, since publishes replace path.
	first := filepath.Join(dir, "first.lesm")
	if err := os.Link(path, first); err != nil {
		return nil, err
	}
	si := &servingInputs{path: path, sources: []string{first}}
	if r.w.reloads {
		// The second serving model shares the corpus, hierarchy, phrases and
		// advisors; only the Gibbs seed differs.
		tm, err := lesm.InferTopicsGibbs(fr.Corpus, topicsK, r.seed+1, lesm.RunOptions{Parallelism: r.p})
		if err != nil {
			return nil, err
		}
		a := fr.Artifact
		other := filepath.Join(dir, "other.lesm")
		if err := lesm.Save(other, &lesm.Artifact{Hierarchy: a.Hierarchy, Topics: tm, Vocab: a.Vocab,
			Corpus: a.Corpus, RolePhrases: a.RolePhrases, Advisor: a.Advisor}); err != nil {
			return nil, err
		}
		si.sources = append(si.sources, other)
	}

	reqs := inferRequests(r.seed, tl, r.cfg.inferPool)
	var paths []string
	fr.Artifact.Hierarchy.Root.Walk(func(n *lesm.TopicNode) { paths = append(paths, n.Path) })
	si.lookups = lookupQueries(r.seed, in, fr.Corpus, topicsK, paths, r.cfg.lookupPool)
	si.bodies = make([][]byte, len(reqs))
	for i, b := range reqs {
		if si.bodies[i], err = json.Marshal(b); err != nil {
			return nil, err
		}
	}
	// A fresh artifact over the fitted model, so the fold-in model Infer
	// caches goes with it.
	a := &lesm.Artifact{Topics: fr.Artifact.Topics, Vocab: fr.Artifact.Vocab}
	for i := 0; i < r.cfg.probes && i < len(reqs); i++ {
		theta, err := a.Infer(docIDs(a.Vocab, reqs[i].Docs), reqs[i].Seed)
		if err != nil {
			return nil, err
		}
		si.probes = append(si.probes, probe{body: si.bodies[i], theta: theta})
	}
	if r.tr.on {
		si.replay = &replayInputs{topics: fr.Artifact.Topics, vocab: fr.Artifact.Vocab, reqs: reqs}
	}
	return si, nil
}

// serve brings the server up, checks its answers, drives the traffic,
// publishes, and on traced runs replays each layer.
func (r *runner) serve(si *servingInputs) error {
	base := liveHeap()
	sv, err := r.bringUps(si.path)
	if err != nil {
		return err
	}
	defer sv.close()
	if err := r.checkServing(sv.c, si); err != nil {
		return err
	}

	inferReq := func(i int) request {
		return request{method: http.MethodPost, path: "/infer", body: si.bodies[i%len(si.bodies)], infer: true}
	}
	lookupReq := func(i int) request {
		return request{method: http.MethodGet, path: si.lookups[i%len(si.lookups)].Path}
	}
	next := func(i int) request {
		switch {
		case r.w.mix == inferOnly:
			return inferReq(i)
		case r.w.mix == lookupsOnly:
			return lookupReq(i)
		case i%2 == 0: // alternate: each kind walks its own pool in order
			return inferReq(i / 2)
		default:
			return lookupReq(i / 2)
		}
	}
	tt, err := r.traffic(sv, si, next)
	if err != nil {
		return err
	}
	r.set("serve_heap_mb", float64(int64(liveHeap())-int64(base))/(1<<20), "MiB")
	if !r.w.reloads {
		// reload_s is reported on every workload (doc.go): off the reload
		// workload it is the served model republished with no reads beside.
		if tt.publishes, err = r.publish(sv.c, si.path, si.sources[0], r.cfg.publishes); err != nil {
			return err
		}
	}
	r.set("reload_s", median(tt.publishTotals()), "s")

	if r.tr.on {
		return r.traceServing(sv, si, tt)
	}
	return nil
}

// fitModel fits in to a snapshot at path and runs the store round-trip
// check on it. The workload's measured fit sets fit_s and, on a traced run,
// is repeated with the recorders attached for the per-layer rows.
func (r *runner) fitModel(in *corpusInput, path string, measured bool) (*fitResult, error) {
	fr, err := runFit(in, fitOptions{P: r.p, Seed: r.seed, Path: path, Trace: r.tr})
	if err != nil {
		return nil, err
	}
	if measured {
		r.set("fit_s", fr.Wall.Seconds(), "s")
		if r.tr.on {
			traced := path + ".traced"
			if err := r.traceFit(in, fr, traced); err != nil {
				return nil, err
			}
			if err := os.Remove(traced); err != nil {
				return nil, err
			}
		}
	}
	return fr, r.checkReencode(path, path+".again")
}

// checkReencode is the store round-trip check: the snapshot Saved at
// path, opened with LoadMapped and Saved again, must give identical bytes.
func (r *runner) checkReencode(path, again string) error {
	a, closer, err := lesm.LoadMapped(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	if err := lesm.Save(again, a); err != nil {
		return err
	}
	x, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	y, err := os.ReadFile(again)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(x, y), "Save → LoadMapped → Save changed the snapshot bytes")
	return os.Remove(again)
}

// served is a running server behind a loopback httptest listener.
type served struct {
	srv *serve.Server
	hs  *httptest.Server
	c   *client
}

func (s *served) close() {
	s.c.close()
	s.hs.Close() // drains handlers before the mappings go
	s.srv.Close()
}

// bringUpTimes splits one bring-up.
type bringUpTimes struct{ total, open, new time.Duration }

// bringUp opens the snapshot through the mmap path, builds the server
// with lesmd's default options (plus the snapshot path, for
// /admin/reload), starts the loopback listener and waits for the first
// /healthz answer.
func (r *runner) bringUp(path string) (*served, bringUpTimes, error) {
	var (
		sv     served
		bt     bringUpTimes
		snap   *store.Snapshot
		closer io.Closer
	)
	total, err := r.tr.time("serve.bringup", 0, func(id int) (err error) {
		bt.open, err = r.tr.time("store.open_mapped", id, func(int) (err error) {
			snap, closer, err = serve.LoadSnapshot(path, true)
			return err
		})
		if err != nil {
			return err
		}
		bt.new, err = r.tr.time("serve.new", id, func(int) (err error) {
			sv.srv, err = serve.New(snap, serve.Options{SnapshotPath: path, MMap: true})
			return err
		})
		if err != nil {
			closer.Close()
			return err
		}
		sv.srv.AdoptCloser(closer)
		sv.hs = httptest.NewServer(sv.srv.Handler())
		sv.c = newClient(sv.hs.URL)
		_, err = r.tr.time("http.healthz", id, func(int) error {
			var h struct{ Status string }
			if err := sv.c.getJSON("/healthz", &h); err != nil {
				return err
			}
			if h.Status != "ok" {
				return fmt.Errorf("healthz status %q", h.Status)
			}
			return nil
		})
		return err
	})
	bt.total = total
	if err != nil {
		if sv.hs != nil {
			sv.close()
		} else if sv.srv != nil {
			sv.srv.Close()
		}
		return nil, bt, err
	}
	return &sv, bt, nil
}

// bringUps brings the server up cfg.setupReps times and keeps the last;
// setup_s is the median bring-up.
func (r *runner) bringUps(path string) (*served, error) {
	var total, open, nw []float64
	var sv *served
	for i := 0; i < r.cfg.setupReps; i++ {
		if sv != nil {
			sv.close()
			sv = nil // unreachable before the next server is built
		}
		// Each bring-up starts like a fresh process, with no garbage pending:
		// otherwise whichever bring-up a collection lands in pays for it.
		runtime.GC()
		var bt bringUpTimes
		var err error
		if sv, bt, err = r.bringUp(path); err != nil {
			return nil, err
		}
		total = append(total, bt.total.Seconds())
		open = append(open, bt.open.Seconds())
		nw = append(nw, bt.new.Seconds())
	}
	r.set("setup_s", median(total), "s")
	r.set("store.open_mapped_s", median(open), "s")
	r.set("serve.new_s", median(nw), "s")
	return sv, nil
}

// docIDs encodes token strings through the vocabulary, dropping unknown
// words exactly as the server does.
func docIDs(v *lesm.Vocabulary, docs [][]string) [][]int {
	out := make([][]int, len(docs))
	for i, d := range docs {
		ids := make([]int, 0, len(d))
		for _, tok := range d {
			if id, ok := v.ID(tok); ok {
				ids = append(ids, id)
			}
		}
		out[i] = ids
	}
	return out
}

// checkServing is the pre-traffic output check: /infer answers for the
// probe set equal in-process Artifact.Infer bit for bit, and every
// exact-word /search ranks that word first.
func (r *runner) checkServing(c *client, si *servingInputs) error {
	for i, p := range si.probes {
		code, b, err := c.do(http.MethodPost, "/infer", p.body)
		if err != nil {
			return err
		}
		var got struct{ Theta [][]float64 }
		ok := code == http.StatusOK && json.Unmarshal(b, &got) == nil && equalRows(got.Theta, p.theta)
		r.check(ok, "/infer probe %d differs from in-process Artifact.Infer (status %d)", i, code)
	}
	for _, q := range si.lookups {
		if !q.Exact {
			continue
		}
		var got struct{ Hits []struct{ Name string } }
		err := c.getJSON(q.Path, &got)
		ok := err == nil && len(got.Hits) > 0 && textkit.Fold(got.Hits[0].Name) == textkit.Fold(q.Text)
		r.check(ok, "exact /search %q does not rank the word first (err %v)", q.Text, err)
	}
	return nil
}

// equalRows reports whether two tables hold the same values bit for bit.
func equalRows[T comparable](a, b [][]T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// publishTiming is one publish: the snapshot file replaced atomically,
// then a synchronous /admin/reload; the new generation serves when it
// returns.
type publishTiming struct {
	start        time.Time
	write, admin time.Duration
}

// publishesPerWindow is how many publishes the reload workload spreads
// over its traffic window.
const publishesPerWindow = 20

// trafficOutcome is what the traffic phases leave for the metrics.
type trafficOutcome struct {
	nominal, saturated *phase
	publishes          []publishTiming
	before, after      map[string]float64 // /metrics scrapes around the traffic
}

func (t *trafficOutcome) publishTotals() []float64 {
	out := make([]float64, len(t.publishes))
	for i, p := range t.publishes {
		out[i] = (p.write + p.admin).Seconds()
	}
	return out
}

// publishOnce lands a copy of the snapshot file src at path and reloads.
func (r *runner) publishOnce(c *client, path, src string) (publishTiming, error) {
	pt := publishTiming{start: time.Now()}
	var err error
	if pt.write, err = r.tr.time("publish.write", 0, func(int) error { return copyAtomic(src, path) }); err != nil {
		return pt, err
	}
	pt.admin, err = r.tr.time("serve.admin_reload", 0, func(int) error {
		code, b, err := c.do(http.MethodPost, "/admin/reload", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("/admin/reload: status %d: %s", code, bytes.TrimSpace(b))
		}
		return err
	})
	return pt, err
}

// copyAtomic lands a copy of src at path as a temporary file renamed over
// the target, so the server never reads a partial snapshot. It does not
// sync: the copy need not survive a crash, and a flush would time the
// host's disk rather than the server.
func copyAtomic(src, path string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp := path + ".new"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// publish runs n back-to-back publishes of src with no other traffic.
func (r *runner) publish(c *client, path, src string, n int) ([]publishTiming, error) {
	var out []publishTiming
	for i := 0; i < n; i++ {
		pt, err := r.publishOnce(c, path, src)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// traffic drives the workload's mix: a short warm-up, then the
// nominal-rate open loop (p50/p90) for the rest of the window, whose last
// quarter on a traced run is a closed-loop saturation phase
// (serve.max_rps). On the reload workload a publisher alternates the two
// models over the served path during both measured phases.
func (r *runner) traffic(sv *served, si *servingInputs, next func(int) request) (*trafficOutcome, error) {
	out := &trafficOutcome{}
	warm := r.cfg.seconds / 20
	nominal := r.cfg.seconds - warm
	var saturate time.Duration
	if r.tr.on {
		// Timed runs never saturate: with both CPUs busy, the closed loop's
		// rate spread by a third between seeds on a shared host (doc.go).
		saturate = r.cfg.seconds / 4
		nominal -= saturate
	}
	r.count(openLoop(sv.c, r.w.rate, warm, next))
	runtime.GC()
	var err error
	if out.before, err = scrape(sv.c); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var (
		wg     sync.WaitGroup
		pubErr error
	)
	if r.w.reloads {
		// Publishes run on a fixed schedule from the start of the measured
		// traffic, so each lands on the same requests in every run.
		interval := r.cfg.seconds / publishesPerWindow
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; ; k++ {
				due := start.Add(interval/2 + time.Duration(k-1)*interval)
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)):
				}
				pt, err := r.publishOnce(sv.c, si.path, si.sources[k%2])
				if err != nil {
					pubErr = err
					return
				}
				out.publishes = append(out.publishes, pt)
			}
		}()
	}
	_, _ = r.tr.time("traffic.nominal", 0, func(int) error {
		out.nominal = openLoop(sv.c, r.w.rate, nominal, next)
		return nil
	})
	if saturate > 0 {
		_, _ = r.tr.time("traffic.saturate", 0, func(int) error {
			out.saturated = closedLoop(sv.c, saturate, next)
			return nil
		})
	}
	close(stop)
	wg.Wait()
	if pubErr != nil {
		return nil, pubErr
	}
	r.count(out.nominal)
	if out.saturated != nil {
		r.count(out.saturated)
	}
	if out.after, err = scrape(sv.c); err != nil {
		return nil, err
	}

	// On a 50/50 mix a quantile is the mean of the two kinds' quantiles:
	// the mix's own median and p90 fall in the gaps between the kinds'
	// latency modes, where a small shift in either moves them far.
	latencyMS := func(q float64) float64 {
		if r.w.mix != alternate {
			return ms(quantile(out.nominal.latencies(nil), q))
		}
		infer := out.nominal.latencies(func(s sample) bool { return s.infer })
		lookup := out.nominal.latencies(func(s sample) bool { return !s.infer })
		return (ms(quantile(infer, q)) + ms(quantile(lookup, q))) / 2
	}
	r.set("p50_ms", latencyMS(0.5), "ms")
	r.set("p90_ms", latencyMS(0.9), "ms")
	return out, nil
}

// scrape reads the server's /metrics exposition into series → value.
func scrape(c *client) (map[string]float64, error) {
	code, b, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}
