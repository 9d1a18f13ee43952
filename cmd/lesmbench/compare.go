package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// errRegression makes -compare exit non-zero when any metric regressed.
var errRegression = errors.New("regression found")

// readResults reads an -out file: one resultLine per workload run.
func readResults(path string) ([]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		l := resultLine{runResult: &runResult{}}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// readBounds reads the metric schema from BENCHMARK.json.
func readBounds(path string) (map[string]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricDef{}
	for _, d := range append(doc.EndToEnd, doc.PerLayer...) {
		out[d.Name] = d
	}
	return out, nil
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method);
// xs must hold at least two values and is sorted in place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// relSpread is the quartile distance of xs as a share of their median
// (0 for fewer than two values).
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(append([]float64(nil), xs...))
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// runCompare prints, per workload and metric, B's median against A's and
// a verdict: a delta inside the spread of A's own runs is unresolved, a
// worsening beyond the metric's bound is a regression. Each file may mix
// timed and traced runs.
func runCompare(w io.Writer, aPath, bPath, boundsPath string) error {
	defs, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	group := func(rs []resultLine) map[key][]float64 {
		g := map[key][]float64{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				// End-to-end metrics (the ones with a bound) count from timed
				// runs only: a traced run measures them with the recorders,
				// probes and replays live.
				if r.Trace && defs[name].Bound > 0 {
					continue
				}
				k := key{r.Workload, name}
				g[k] = append(g[k], m.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			if _, known := defs[k.metric]; known {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n)\tB median (n)\tdelta\tA spread\tbound\tverdict")
	regressions := 0
	for _, k := range keys {
		d := defs[k.metric]
		va, vb := ga[k], gb[k]
		ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
		spread := relSpread(va)
		delta := 0.0
		if ma != 0 {
			delta = (mb - ma) / math.Abs(ma)
		}
		worse := delta
		if d.Better == "higher" {
			worse = -delta
		}
		var verdict string
		switch {
		case d.Bound > 0 && spread > d.Bound:
			verdict = "unresolved: A's spread exceeds the bound"
		case d.Bound > 0 && worse > d.Bound:
			verdict = "REGRESSION"
			regressions++
		case math.Abs(delta) <= spread || len(va) < 2:
			verdict = "unresolved: within A's spread"
		case worse < 0:
			verdict = "better"
		default:
			verdict = "worse"
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%+.1f%%\t%.1f%%\t%s\t%s\n",
			k.workload, k.metric, ma, d.Unit, len(va), mb, d.Unit, len(vb), 100*delta, 100*spread, bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%w: %d metric(s) worse than their bound", errRegression, regressions)
	}
	return nil
}
