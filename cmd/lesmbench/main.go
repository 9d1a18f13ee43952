package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// env records where a result was measured.
type env struct {
	P          int    `json:"P"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func currentEnv(seed int64, seconds int) env {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p := runtime.GOMAXPROCS(0)
	return env{P: p, NumCPU: runtime.NumCPU(), GOMAXPROCS: p, Go: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fit, infer, lookup, reload or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from (2 is the held-out seed, see doc.go)")
	seconds := flag.Int("seconds", 7, "traffic window per workload, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: attach the recorders and report the per-layer metrics")
	spans := flag.String("spans", "", "write the run's spans as JSONL to this file (with -trace 1)")
	out := flag.String("out", "", "append each workload run's full result as a JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -out files: lesmbench -compare A.jsonl B.jsonl")
	bounds := flag.String("bounds", "BENCHMARK.json", "regression bounds for -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare wants two result files, got %d", flag.NArg()))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *bounds); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fail(fmt.Errorf("unknown -workload %q (want fit, infer, lookup, reload or all)", *name))
	}

	e := currentEnv(*seed, *seconds)
	envLine, err := json.Marshal(map[string]env{"env": e})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(envLine))
	tr := newTracer(*trace == 1)
	sum, err := runAll(fullConfig(time.Duration(*seconds)*time.Second), ws, *seed, tr, e, *out)
	if err != nil {
		fail(err)
	}
	if *spans != "" {
		if err := tr.writeJSONL(*spans); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// runAll runs each workload, appends the full results to out (if set) and
// returns the summary: the end-to-end metrics of a timed run or the
// per-layer metrics of a traced one, prefixed by workload when there are
// several.
func runAll(cfg config, ws []workload, seed int64, tr *tracer, e env, out string) (*summary, error) {
	defs := endToEnd
	if tr.on {
		defs = perLayer
	}
	sum := &summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res, err := runWorkload(cfg, w, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		for _, p := range res.Problems {
			fmt.Fprintf(os.Stderr, "lesmbench: %s: %s\n", w.name, p)
		}
		if out != "" {
			if err := appendResult(out, e, res); err != nil {
				return nil, err
			}
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", w.name, d.Name)
			}
			key := d.Name
			if len(ws) > 1 {
				key = w.name + "." + d.Name
			}
			sum.Metrics[key] = m
		}
	}
	return sum, nil
}

// resultLine is one line of an -out file.
type resultLine struct {
	Env env `json:"env"`
	*runResult
}

func appendResult(path string, e env, res *runResult) error {
	b, err := json.Marshal(resultLine{Env: e, runResult: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lesmbench:", err)
	os.Exit(2)
}
