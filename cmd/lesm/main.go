// Command lesm builds a phrase-represented topical hierarchy from a plain
// text corpus (one document per line) and prints it. With -save it also
// persists the fitted artifacts as a model snapshot that cmd/lesmd can
// serve.
//
// Usage:
//
//	lesm -k 4 -levels 2 -engine cathy corpus.txt
//	cat corpus.txt | lesm -engine strod
//	lesm -k 3 -topics 4 -save model.lesm corpus.txt   # fit & persist
//
// The -topics Gibbs fit picks its sampling core from the model's shape
// (lda.Sampler.ResolveFor) and prints the choice; no flag overrides it.
//
// Observability (all observational — fitted models are bit-identical
// with or without them):
//
//	-progress            live per-sweep status line on stderr
//	-trace fit.jsonl     per-sweep sampler statistics and pool telemetry
//	                     as JSON lines
//	-probe 10            read-only corpus log-likelihood every 10 Gibbs
//	sweeps (appears in -progress and -trace)
//
// Crash-safe fitting (the -topics Gibbs fit only):
//
//	-checkpoint fit.ckpt      persist a resumable checkpoint every
//	                          -checkpoint-every sweeps (atomic replace);
//	                          SIGINT/SIGTERM stop gracefully at the next
//	                          sweep boundary after a final checkpoint
//	-checkpoint-every 10      checkpoint cadence in sweeps
//	-resume                   continue from the -checkpoint file if it
//	                          exists; the resumed fit's final model is
//	                          bit-identical to an uninterrupted run's
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"lesm"
	"lesm/internal/lda"
)

func main() {
	k := flag.Int("k", 4, "children per topic (0 = BIC selection, cathy only)")
	levels := flag.Int("levels", 2, "hierarchy depth below the root")
	engine := flag.String("engine", "cathy", "hierarchy engine: cathy | strod")
	seed := flag.Int64("seed", 1, "random seed")
	stem := flag.Bool("stem", false, "apply Porter stemming")
	top := flag.Int("top", 8, "phrases to print per topic")
	par := flag.Int("p", 0, "parallel workers for the mining engines (0 = GOMAXPROCS)")
	save := flag.String("save", "", "persist the fitted artifacts as a snapshot at this path (see cmd/lesmd)")
	topics := flag.Int("topics", 0, "with -save: also fit a flat Gibbs topic model with this many topics for /infer")
	progress := flag.Bool("progress", false, "paint a live per-sweep status line on stderr (throughput, changed fraction, accept rates, convergence)")
	trace := flag.String("trace", "", "write per-sweep sampler statistics and pool telemetry as JSON lines to this file")
	probe := flag.Int("probe", 0, "compute the read-only corpus log-likelihood convergence probe every this many Gibbs sweeps (0 = never; costs O(tokens x K) per evaluation)")
	ckptPath := flag.String("checkpoint", "", "with -topics: persist a resumable fit checkpoint at this path every -checkpoint-every sweeps, and on SIGINT/SIGTERM")
	ckptEvery := flag.Int("checkpoint-every", 10, "with -checkpoint: checkpoint cadence in sweeps")
	resume := flag.Bool("resume", false, "with -checkpoint: continue the fit from the checkpoint file if it exists (fresh start when it does not)")
	flag.Parse()

	eng, err := parseEngine(*engine)
	if err != nil {
		log.Fatalf("lesm: -engine: %v", err)
	}
	if *probe < 0 {
		log.Fatalf("lesm: -probe %d, need >= 0", *probe)
	}
	if *ckptPath != "" && *ckptEvery < 1 {
		log.Fatalf("lesm: -checkpoint-every %d, need >= 1", *ckptEvery)
	}
	if *resume && *ckptPath == "" {
		log.Fatal("lesm: -resume requires -checkpoint (the file to resume from)")
	}
	if *ckptPath != "" && *topics == 0 {
		log.Fatal("lesm: -checkpoint requires -topics (only the flat Gibbs fit checkpoints)")
	}

	// Recording sinks. Both are observational: fitted models are
	// bit-identical with or without them.
	var prog *lesm.ProgressRecorder
	var traceRec *lesm.TraceRecorder
	var recs []lesm.Recorder
	if *progress {
		prog = lesm.NewProgressRecorder(os.Stderr)
		recs = append(recs, prog)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		traceRec = lesm.NewTraceRecorder(f)
		recs = append(recs, traceRec)
	}
	rec := lesm.MultiRecorder(recs...)
	finishRec := func() {
		if prog != nil {
			prog.Done()
		}
		if traceRec != nil {
			if err := traceRec.Close(); err != nil {
				log.Printf("lesm: trace: %v", err)
			}
		}
	}
	// fatal closes the sinks first so an aborted fit still leaves a
	// complete, parseable trace file (log.Fatal skips deferred calls).
	fatal := func(err error) {
		finishRec()
		log.Fatal(err)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	pipeline := lesm.DefaultPipeline
	pipeline.Stem = *stem
	corpus := lesm.NewCorpus()
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if line := scanner.Text(); len(line) > 0 {
			corpus.AddText(line, pipeline)
		}
	}
	if err := scanner.Err(); err != nil {
		log.Fatal(err)
	}

	opt := lesm.HierarchyOptions{Engine: eng, K: *k, Levels: *levels, Seed: *seed, Parallelism: *par, Recorder: rec}
	h, err := lesm.BuildTextHierarchy(corpus, opt)
	if err != nil {
		fatal(err)
	}
	if _, err := lesm.AttachPhrases(corpus, nil, h, lesm.PhraseOptions{TopN: *top, Parallelism: *par}); err != nil {
		fatal(err)
	}
	if prog != nil {
		prog.Done() // end the live line before the hierarchy prints
	}
	fmt.Print(h.String())

	if *save != "" {
		art := &lesm.Artifact{
			Hierarchy:   h,
			Vocab:       corpus.Vocab,
			Corpus:      lesm.NewCorpusMeta(corpus),
			RolePhrases: lesm.RolePhrasesOf(h),
		}
		if *topics > 0 {
			resolved := lda.SamplerAuto.ResolveFor(*topics, corpus.Vocab.Size())
			fmt.Printf("fitting %d flat topics with the %s sampler\n", *topics, resolved)
			ro := lesm.RunOptions{Parallelism: *par, Recorder: rec, ProbeEvery: *probe}
			if *ckptPath != "" {
				ro.CheckpointEvery = *ckptEvery
				ro.CheckpointFunc = func(cp *lesm.Checkpoint) error {
					return lesm.SaveCheckpoint(*ckptPath, cp)
				}
				// SIGINT/SIGTERM request a graceful stop: the fit finishes
				// its current sweep, persists a final checkpoint, and
				// returns ErrStopped. A second signal kills immediately.
				var stopping atomic.Bool
				sig := make(chan os.Signal, 2)
				signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
				go func() {
					<-sig
					stopping.Store(true)
					fmt.Fprintf(os.Stderr, "lesm: stopping at the next sweep boundary (signal again to kill)\n")
					<-sig
					os.Exit(1)
				}()
				ro.Stop = stopping.Load
				if *resume {
					cp, err := lesm.LoadCheckpoint(*ckptPath)
					switch {
					case errors.Is(err, fs.ErrNotExist):
						fmt.Fprintf(os.Stderr, "lesm: no checkpoint at %s, starting fresh\n", *ckptPath)
					case err != nil:
						fatal(err)
					default:
						fmt.Fprintf(os.Stderr, "lesm: resuming from %s at sweep %d/%d\n", *ckptPath, cp.Sweep, cp.Fingerprint.Iters)
						ro.Resume = cp
					}
				}
			}
			tm, err := lesm.InferTopicsGibbs(corpus, *topics, *seed, ro)
			if errors.Is(err, lesm.ErrStopped) {
				if prog != nil {
					prog.Done()
				}
				fmt.Fprintf(os.Stderr, "lesm: fit stopped; resume with -resume -checkpoint %s\n", *ckptPath)
				finishRec()
				return
			}
			if err != nil {
				fatal(err)
			}
			if prog != nil {
				prog.Done()
			}
			art.Topics = tm
		}
		if err := lesm.Save(*save, art); err != nil {
			fatal(err)
		}
		fmt.Printf("saved snapshot %s (sections: %v)\n", *save, art.Sections())
	}
	finishRec()
}

// parseEngine maps the -engine flag to the hierarchy engine.
func parseEngine(s string) (lesm.Engine, error) {
	switch s {
	case "cathy":
		return lesm.EngineCATHY, nil
	case "strod":
		return lesm.EngineSTROD, nil
	}
	return 0, fmt.Errorf("unknown engine %q, want cathy or strod", s)
}
