// Package lesm is the public API of the latent entity structure mining
// framework — a Go reproduction of "Mining latent entity structures from
// massive unstructured and interconnected data" (Chi Wang, 2014).
//
// The framework solves and integrates a chain of tasks over text-attached
// heterogeneous information networks:
//
//   - hierarchical topic and community discovery (CATHY / CATHYHIN, Ch. 3,
//     and the moment-based STROD engine, Ch. 7);
//   - topical phrase mining (KERT and ToPMine, Ch. 4);
//   - entity topical role analysis (Ch. 5);
//   - hierarchical relation mining (TPFG and a supervised relational CRF,
//     Ch. 6).
//
// A typical flow: build a Corpus (and optionally per-document entity
// attachments), construct a collapsed Network, call BuildHierarchy, attach
// phrases with AttachPhrases, then explore with a RoleAnalyzer. See the
// runnable programs under examples/ for end-to-end usage.
package lesm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"lesm/internal/cathy"
	"lesm/internal/core"
	"lesm/internal/hin"
	"lesm/internal/lda"
	"lesm/internal/linalg"
	"lesm/internal/obs"
	"lesm/internal/par"
	"lesm/internal/relcrf"
	"lesm/internal/roles"
	"lesm/internal/search"
	"lesm/internal/store"
	"lesm/internal/strod"
	"lesm/internal/textkit"
	"lesm/internal/topmine"
	"lesm/internal/tpfg"
)

// Re-exported core types. External importers use these names; the internal
// packages stay private.
type (
	// Corpus is an id-encoded document collection with its vocabulary.
	Corpus = textkit.Corpus
	// Pipeline configures text preprocessing (stopwords, Porter stemming).
	Pipeline = textkit.Pipeline
	// Vocabulary maps words to dense ids and back.
	Vocabulary = textkit.Vocabulary
	// Hierarchy is a phrase-represented, entity-enriched topical hierarchy.
	Hierarchy = core.Hierarchy
	// TopicNode is one topic in a hierarchy.
	TopicNode = core.TopicNode
	// TypeID identifies a node type (TermType = 0 is the word type).
	TypeID = core.TypeID
	// RankedPhrase is a scored phrase attached to a topic.
	RankedPhrase = core.RankedPhrase
	// RankedEntity is a scored entity attached to a topic.
	RankedEntity = core.RankedEntity
	// Network is an edge-weighted network with typed nodes.
	Network = hin.Network
	// DocRecord carries one document's term ids and entity attachments.
	DocRecord = hin.DocRecord
	// RoleAnalyzer answers the Chapter 5 role questions.
	RoleAnalyzer = roles.Analyzer
)

// TermType is the node type holding vocabulary terms.
const TermType = core.TermType

// Entity ranking modes for RoleAnalyzer.RankEntities (Section 5.2).
const (
	// ERankPop ranks entities by popularity p(e|t) alone.
	ERankPop = roles.ERankPop
	// ERankPopPur combines popularity with purity against sibling topics.
	ERankPopPur = roles.ERankPopPur
)

// DefaultPipeline removes stopwords and keeps tokens of length >= 2.
var DefaultPipeline = textkit.DefaultPipeline

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return textkit.NewCorpus() }

// BuildCollapsedNetwork converts documents with attached entities into the
// collapsed heterogeneous network of Example 3.1. typeNames[0] must be
// "term" and numNodes[0] the vocabulary size.
func BuildCollapsedNetwork(typeNames []string, numNodes []int, docs []DocRecord) *Network {
	return hin.BuildCollapsed(typeNames, numNodes, docs, hin.BuildOptions{})
}

// Engine selects the hierarchy construction algorithm.
type Engine int

const (
	// EngineCATHY uses the recursive Poisson link-clustering EM of Ch. 3
	// (CATHYHIN on heterogeneous networks).
	EngineCATHY Engine = iota
	// EngineSTROD uses the moment-based tensor decomposition of Ch. 7
	// (text only; fast and robust to restarts).
	EngineSTROD
)

// --- Fit-side observability ---

type (
	// Recorder receives per-sweep sampler statistics and parallel-pool
	// telemetry from instrumented entry points (RunOptions.Recorder,
	// HierarchyOptions.Recorder). Implementations must be safe for
	// concurrent use. Recording is strictly observational: fitted models
	// are bit-identical with or without a recorder attached.
	Recorder = obs.Recorder
	// SweepStats is one completed sampler sweep (throughput, changed
	// fraction, MH accept rates, alias rebuilds, merge costs, optional
	// convergence probe).
	SweepStats = obs.SweepStats
	// PoolStats is one parallel pass (chunk wait/exec latencies).
	PoolStats = obs.PoolStats
	// TraceRecorder writes one JSON object per event (JSONL).
	TraceRecorder = obs.Trace
	// ProgressRecorder maintains a live one-line terminal status.
	ProgressRecorder = obs.Progress
)

// NewTraceRecorder returns a Recorder writing JSONL events to w. Close
// it when the run ends: a mid-fit cancellation unwinding through a
// deferred Close still leaves a complete, parseable file. If w is an
// io.Closer, Close closes it after flushing.
func NewTraceRecorder(w io.Writer) *TraceRecorder { return obs.NewTrace(w) }

// NewProgressRecorder returns a Recorder painting a live status line to
// w (typically os.Stderr). Call Done when the run ends to terminate the
// line with a newline.
func NewProgressRecorder(w io.Writer) *ProgressRecorder { return obs.NewProgress(w) }

// MultiRecorder fans events out to several recorders, skipping nils; it
// returns nil when none remain, preserving the zero-cost nil path.
func MultiRecorder(rs ...Recorder) Recorder { return obs.Multi(rs...) }

// RunOptions carries the execution-policy knobs of the shared parallel
// runtime for entry points without a richer options struct.
type RunOptions struct {
	// Parallelism bounds the worker count of the engines' parallel hot
	// loops (0 = GOMAXPROCS). Results are bit-identical at any setting.
	Parallelism int
	// Recorder, when non-nil, receives per-sweep sampler statistics and
	// pool telemetry from instrumented entry points (see NewTraceRecorder,
	// NewProgressRecorder). Recording is observational only: results are
	// bit-identical with or without it, and the nil path costs nothing.
	Recorder Recorder
	// ProbeEvery asks Gibbs-backed fits to compute the read-only
	// corpus log-likelihood convergence probe every N sweeps (0 = never;
	// the final sweep always probes when recording with N > 0). The
	// probe is O(corpus tokens x K) per evaluation.
	ProbeEvery int
	// CheckpointEvery asks Gibbs-backed fits to capture a resumable
	// checkpoint every N sweeps through CheckpointFunc (0 = never;
	// requires CheckpointFunc when > 0). Checkpointing is observational:
	// the fitted model is bit-identical with or without it.
	CheckpointEvery int
	// CheckpointFunc receives each captured checkpoint, synchronously at
	// the sweep boundary. Persist it with SaveCheckpoint; a returned
	// error aborts the fit.
	CheckpointFunc func(*Checkpoint) error
	// Resume continues a fit from a checkpoint (LoadCheckpoint) instead
	// of initializing fresh. The configuration and corpus must match the
	// checkpointed run exactly — any mismatch is an error, never a
	// silently different trajectory — and the resumed fit's final model
	// is bit-identical to the uninterrupted run's.
	Resume *Checkpoint
	// Stop, polled at sweep boundaries, requests a graceful stop: when
	// it returns true the fit captures a final checkpoint (if
	// CheckpointFunc is set) and returns ErrStopped. Wire it to a signal
	// handler for kill-safe long fits.
	Stop func() bool
	// Ctx cancels the computation between work chunks (nil = background).
	Ctx context.Context
}

func firstRunOptions(opts []RunOptions) RunOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return RunOptions{}
}

// HierarchyOptions configure BuildHierarchy.
type HierarchyOptions struct {
	// Engine picks the algorithm (default EngineCATHY); any other value is
	// an error.
	Engine Engine
	// K is the number of children per topic (0 = select by BIC, CATHY only).
	// A negative K is an error, and so is K = 1 under EngineCATHY.
	K int
	// Levels is the depth below the root (default 2).
	Levels int
	// LearnLinkWeights enables link-type weight learning (Eq. 3.37).
	LearnLinkWeights bool
	// Seed drives all randomness.
	Seed int64
	// Parallelism bounds the worker count of the engine's parallel hot
	// loops (0 = GOMAXPROCS). Same seed gives bit-identical hierarchies at
	// any setting.
	Parallelism int
	// Recorder, when non-nil, receives one record per CATHY EM sweep,
	// labeled by topic path, k and restart, plus pool telemetry. Only the
	// final sweep of each run carries a log-likelihood (the one restart
	// selection and BIC compare); the others report NaN. Observational
	// only. EngineSTROD has no sweep loop and ignores it.
	Recorder Recorder
	// Ctx cancels construction between work chunks (nil = background).
	Ctx context.Context
}

// validate rejects options no engine can honour: an unknown Engine, a
// negative K, and K = 1 under EngineCATHY (one child is no split; 0 selects
// k by BIC).
func (opt HierarchyOptions) validate() error {
	if opt.Engine != EngineCATHY && opt.Engine != EngineSTROD {
		return fmt.Errorf("lesm: unknown Engine %d", opt.Engine)
	}
	if opt.K < 0 {
		return fmt.Errorf("lesm: K = %d, need >= 0", opt.K)
	}
	if opt.Engine == EngineCATHY && opt.K == 1 {
		return errors.New("lesm: K = 1 under EngineCATHY, need >= 2 (or 0 to select k by BIC)")
	}
	return nil
}

// BuildHierarchy constructs a topical hierarchy from a heterogeneous
// network (EngineCATHY) or from the term type of the network (EngineSTROD
// requires a corpus; use BuildTextHierarchy instead).
func BuildHierarchy(net *Network, opt HierarchyOptions) (*Hierarchy, error) {
	if net == nil {
		return nil, errors.New("lesm: nil network")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Engine == EngineSTROD {
		return nil, errors.New("lesm: EngineSTROD requires a corpus; use BuildTextHierarchy")
	}
	if opt.Levels == 0 {
		opt.Levels = 2
	}
	mode := cathy.EqualWeights
	if opt.LearnLinkWeights {
		mode = cathy.LearnWeights
	}
	res, err := cathy.Build(net, cathy.Options{
		K: opt.K, Levels: opt.Levels, Seed: opt.Seed,
		Background: true, Weights: mode,
		P: opt.Parallelism, Ctx: opt.Ctx, Rec: opt.Recorder,
	})
	if err != nil {
		return nil, err
	}
	return res.Hierarchy, nil
}

// BuildTextHierarchy constructs a topical hierarchy from plain text.
func BuildTextHierarchy(corpus *Corpus, opt HierarchyOptions) (*Hierarchy, error) {
	if corpus == nil || len(corpus.Docs) == 0 {
		return nil, errors.New("lesm: empty corpus")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Levels == 0 {
		opt.Levels = 2
	}
	docs := make([][]int, len(corpus.Docs))
	for i, d := range corpus.Docs {
		docs[i] = d.Tokens
	}
	switch opt.Engine {
	case EngineSTROD:
		k := opt.K
		if k == 0 {
			k = 5
		}
		return strod.BuildTree(strod.FromTokens(docs), corpus.Vocab.Size(), strod.TreeConfig{
			K: k, Levels: opt.Levels,
			Config: strod.Config{Seed: opt.Seed, P: opt.Parallelism, Ctx: opt.Ctx},
		})
	default:
		net := hin.TermNetwork(corpus.Vocab.Size(), docs, 0)
		net.Names[0] = corpus.Vocab.Words()
		res, err := cathy.Build(net, cathy.Options{
			K: opt.K, Levels: opt.Levels, Seed: opt.Seed,
			P: opt.Parallelism, Ctx: opt.Ctx, Rec: opt.Recorder,
		})
		if err != nil {
			return nil, err
		}
		return res.Hierarchy, nil
	}
}

// PhraseOptions configure phrase mining.
type PhraseOptions struct {
	// MinSupport is the frequent-phrase threshold (default 5).
	MinSupport int
	// MaxLen caps phrase length (default 5).
	MaxLen int
	// TopN truncates each topic's phrase list (default 20).
	TopN int
	// Parallelism bounds the worker count of the parallel mining and
	// segmentation passes (0 = GOMAXPROCS). Results are identical at any
	// setting.
	Parallelism int
	// Ctx cancels mining between work chunks (nil = background).
	Ctx context.Context
}

// AttachPhrases mines frequent phrases from the corpus (ToPMine, Ch. 4) and
// attaches ranked phrase lists to every topic of the hierarchy. It returns
// the role analyzer primed with the same mining results, ready for Chapter 5
// queries; docs may be nil when the corpus has no entities.
func AttachPhrases(corpus *Corpus, docs []DocRecord, h *Hierarchy, opt PhraseOptions) (*RoleAnalyzer, error) {
	if corpus == nil || h == nil {
		return nil, errors.New("lesm: nil corpus or hierarchy")
	}
	if opt.MinSupport == 0 {
		opt.MinSupport = 5
	}
	if opt.MaxLen == 0 {
		opt.MaxLen = 5
	}
	if opt.TopN == 0 {
		opt.TopN = 20
	}
	cfg := topmine.Config{
		MinSupport: opt.MinSupport, MaxLen: opt.MaxLen,
		P: opt.Parallelism, Ctx: opt.Ctx,
	}
	miner := topmine.MineFrequentPhrases(corpus.Docs, cfg)
	if opt.Ctx != nil && opt.Ctx.Err() != nil {
		return nil, opt.Ctx.Err()
	}
	if err := topmine.VisualizeHierarchy(corpus, miner, h.Root, opt.TopN, par.Opts{P: opt.Parallelism, Ctx: opt.Ctx}); err != nil {
		return nil, err
	}
	if docs == nil {
		docs = make([]DocRecord, len(corpus.Docs))
		for i, d := range corpus.Docs {
			docs[i] = DocRecord{Tokens: d.Tokens}
		}
	}
	part := miner.SegmentCorpus(corpus.Docs)
	if opt.Ctx != nil && opt.Ctx.Err() != nil {
		return nil, opt.Ctx.Err()
	}
	return roles.NewAnalyzer(corpus, docs, h.Root, miner, part), nil
}

// TopicalPhrases runs the full flat ToPMine pipeline (mining, segmentation,
// PhraseLDA, ranking) and returns ranked phrases per topic. An optional
// RunOptions bounds parallelism and carries a cancellation context.
func TopicalPhrases(corpus *Corpus, k int, seed int64, opts ...RunOptions) ([][]RankedPhrase, error) {
	if corpus == nil || len(corpus.Docs) == 0 {
		return nil, errors.New("lesm: empty corpus")
	}
	if k < 2 {
		return nil, fmt.Errorf("lesm: k = %d, need >= 2", k)
	}
	ro := firstRunOptions(opts)
	res, err := topmine.Run(corpus, topmine.Config{P: ro.Parallelism, Ctx: ro.Ctx},
		lda.Config{
			K: k, Seed: seed, Background: true,
			Rec: ro.Recorder, ProbeEvery: ro.ProbeEvery,
		}, topmine.RankConfig{})
	if err != nil {
		return nil, err
	}
	return res.Topics, nil
}

// --- Relation mining (Chapter 6) ---

// RelPaper is one publication record for advisor-advisee mining.
type RelPaper struct {
	Year    int
	Authors []int
	Venue   int
}

// AdvisorResult holds the inferred advisor ranking.
type AdvisorResult struct {
	res *tpfg.Result
}

// Advisor returns author i's top-ranked advisor (-1 = none) and its
// normalized ranking score.
func (r *AdvisorResult) Advisor(i int) (int, float64) { return r.res.Best(i) }

// Candidates returns author i's candidate advisors with ranks and estimated
// advising intervals.
func (r *AdvisorResult) Candidates(i int) []struct {
	Advisor    int
	Rank       float64
	Start, End int
} {
	var out []struct {
		Advisor    int
		Rank       float64
		Start, End int
	}
	for v, c := range r.res.Net.Cands[i] {
		out = append(out, struct {
			Advisor    int
			Rank       float64
			Start, End int
		}{c.Advisor, r.res.Rank[i][v+1], c.Start, c.End})
	}
	return out
}

// MineAdvisorTree runs the unsupervised TPFG pipeline (Section 6.1) on a
// temporal collaboration network. An optional RunOptions bounds the
// parallelism of the message-passing sweeps.
//
// seed is unused: TPFG inference is deterministic, so every seed gives
// the same ranking. The parameter stays only because cmd/lesmbench's fit
// passes it.
func MineAdvisorTree(papers []RelPaper, numAuthors int, seed int64, opts ...RunOptions) (*AdvisorResult, error) {
	if numAuthors <= 0 || len(papers) == 0 {
		return nil, errors.New("lesm: empty collaboration network")
	}
	ro := firstRunOptions(opts)
	plain := make([]tpfg.Paper, len(papers))
	for i, p := range papers {
		plain[i] = tpfg.Paper{Year: p.Year, Authors: p.Authors}
	}
	net := tpfg.Preprocess(plain, numAuthors, tpfg.PreprocessOptions{Rules: tpfg.AllRules})
	res := tpfg.Infer(net, tpfg.Config{P: ro.Parallelism, Ctx: ro.Ctx})
	if ro.Ctx != nil && ro.Ctx.Err() != nil {
		return nil, ro.Ctx.Err()
	}
	return &AdvisorResult{res: res}, nil
}

// MineAdvisorTreeSupervised trains the relational CRF of Section 6.2 on
// labeled authors (advisorOf[i] = advisor id or -1) listed in trainIdx, then
// predicts jointly for everyone. An optional RunOptions bounds the
// parallelism of the mini-batch gradient training and the prediction
// sweeps; the learned model is bit-identical at any setting.
func MineAdvisorTreeSupervised(papers []RelPaper, numAuthors int, advisorOf []int, trainIdx []int, seed int64, opts ...RunOptions) (*AdvisorResult, error) {
	if numAuthors <= 0 || len(papers) == 0 {
		return nil, errors.New("lesm: empty collaboration network")
	}
	ro := firstRunOptions(opts)
	numVenues := 0
	for _, p := range papers {
		if p.Venue+1 > numVenues {
			numVenues = p.Venue + 1
		}
	}
	rp := make([]relcrf.Paper, len(papers))
	plain := make([]tpfg.Paper, len(papers))
	for i, p := range papers {
		rp[i] = relcrf.Paper{Year: p.Year, Authors: p.Authors, Venue: p.Venue}
		plain[i] = tpfg.Paper{Year: p.Year, Authors: p.Authors}
	}
	net := tpfg.Preprocess(plain, numAuthors, tpfg.PreprocessOptions{Rules: tpfg.AllRules})
	feats := relcrf.Features(rp, numAuthors, numVenues, net)
	m, err := relcrf.Train(net, feats, advisorOf, trainIdx, relcrf.TrainOptions{
		Seed: seed, P: ro.Parallelism, Ctx: ro.Ctx,
	})
	if err != nil {
		return nil, err
	}
	res, err := m.Infer(net, feats, par.Opts{P: ro.Parallelism, Ctx: ro.Ctx})
	if err != nil {
		return nil, err
	}
	return &AdvisorResult{res: res}, nil
}

// --- Flat topic inference (Chapter 7) ---

// TopicModel is a flat topic-word model, recovered either by the
// moment-based STROD method (InferTopics) or by collapsed Gibbs sampling
// (InferTopicsGibbs).
type TopicModel struct {
	// Phi[k] is topic k's word distribution; Weight[k] its share.
	Phi    [][]float64
	Weight []float64
	// NKV[k][v] and NK[k] are the Gibbs sampler's final token count tables
	// — the sufficient statistics fold-in inference uses. Nil for STROD
	// models (fold-in then samples against Phi directly).
	NKV [][]int
	NK  []int
	// Alpha and Beta are the fit's effective Dirichlet hyperparameters
	// (zero for STROD models).
	Alpha, Beta float64
}

// InferTopics recovers k flat topics from the corpus with the moment-based
// STROD method: deterministic given a seed, no sampling iterations. An
// optional RunOptions bounds parallelism and carries a cancellation context.
func InferTopics(corpus *Corpus, k int, seed int64, opts ...RunOptions) (*TopicModel, error) {
	if corpus == nil || len(corpus.Docs) == 0 {
		return nil, errors.New("lesm: empty corpus")
	}
	if k < 2 {
		return nil, fmt.Errorf("lesm: k = %d, need >= 2", k)
	}
	ro := firstRunOptions(opts)
	docs := make([][]int, len(corpus.Docs))
	for i, d := range corpus.Docs {
		docs[i] = d.Tokens
	}
	m, err := strod.Fit(strod.FromTokens(docs), corpus.Vocab.Size(), strod.Config{
		K: k, Seed: seed, LearnAlpha0: true,
		P: ro.Parallelism, Ctx: ro.Ctx,
	})
	if err != nil {
		return nil, err
	}
	return &TopicModel{Phi: m.Phi, Weight: m.Weight}, nil
}

// TopWords returns topic k's top-n words rendered through the vocabulary
// (linalg.TopK selection: O(V log n), ties to the lower word id). n is
// clamped to the number of renderable words, min(len(Phi[k]),
// vocab.Size()), so a vocabulary smaller than the model's word axis yields
// a short list instead of an out-of-range panic.
func (m *TopicModel) TopWords(vocab *Vocabulary, k, n int) []string {
	phi := m.Phi[k]
	if vs := vocab.Size(); len(phi) > vs {
		phi = phi[:vs]
	}
	ids := linalg.TopK(phi, n)
	if ids == nil {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = vocab.Word(id)
	}
	return out
}

// InferTopicsGibbs fits k flat topics with the collapsed Gibbs sampler of
// Chapter 4's LDA substrate. Unlike InferTopics (STROD), the returned model
// carries the sampler's sufficient statistics (NKV/NK), so fold-in
// inference — Artifact.Infer, the lesmd /infer endpoint — samples against
// the exact smoothed distributions the fit would have used. Deterministic:
// same seed gives a bit-identical model at any parallelism level.
func InferTopicsGibbs(corpus *Corpus, k int, seed int64, opts ...RunOptions) (*TopicModel, error) {
	if corpus == nil || len(corpus.Docs) == 0 {
		return nil, errors.New("lesm: empty corpus")
	}
	if k < 2 {
		return nil, fmt.Errorf("lesm: k = %d, need >= 2", k)
	}
	ro := firstRunOptions(opts)
	docs := make([][]int, len(corpus.Docs))
	for i, d := range corpus.Docs {
		docs[i] = d.Tokens
	}
	m, err := lda.Run(docs, corpus.Vocab.Size(), lda.Config{
		K: k, Seed: seed, P: ro.Parallelism, Ctx: ro.Ctx,
		Rec: ro.Recorder, ProbeEvery: ro.ProbeEvery,
		CheckpointEvery: ro.CheckpointEvery, CheckpointFunc: ro.CheckpointFunc,
		Resume: ro.Resume, Stop: ro.Stop,
	})
	if err != nil {
		return nil, err
	}
	return &TopicModel{
		Phi: m.Phi, Weight: m.Rho, NKV: m.NKV, NK: m.NK,
		Alpha: m.Alpha, Beta: m.Beta,
	}, nil
}

// --- Crash-safe fitting (checkpoint/resume) ---

// Checkpoint is a resumable snapshot of a Gibbs fit at a sweep boundary:
// the topic assignments, the run's configuration fingerprint, and — for
// the MH core — the alias-proposal source counts. Captured through
// RunOptions.CheckpointFunc, persisted with SaveCheckpoint, and fed back
// through RunOptions.Resume; resuming reproduces the uninterrupted run's
// final model bit for bit, at any parallelism level.
type Checkpoint = lda.Checkpoint

// ErrStopped is returned by Gibbs-backed fits when RunOptions.Stop
// requested a graceful stop at a sweep boundary. The fit is incomplete
// but a final checkpoint was captured (when CheckpointFunc is set), so
// the run can be resumed where it left off.
var ErrStopped = lda.ErrStopped

// SaveCheckpoint persists a fit checkpoint at path in the versioned
// LESMCKPT binary format, with the same atomic-replace write discipline
// as Save: a crash mid-write never corrupts a previously saved
// checkpoint.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	return store.WriteCheckpoint(path, cp)
}

// LoadCheckpoint reads a checkpoint persisted by SaveCheckpoint,
// verifying the per-section checksums and the checkpoint's internal
// shape invariants. Feed the result to RunOptions.Resume.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return store.ReadCheckpoint(path)
}

// --- Persistence & serving (the snapshot store) ---

// CorpusMeta is the corpus-level metadata persisted alongside a model:
// enough for a server to report shapes and compute IDF-style statistics
// without shipping the documents themselves.
type CorpusMeta = store.CorpusMeta

// TopicPhrases pairs a topic path with its ranked phrase list — the role
// analyzer's per-topic view in snapshot form.
type TopicPhrases = store.TopicPhrases

// NewCorpusMeta extracts the persistable metadata of a corpus.
func NewCorpusMeta(c *Corpus) *CorpusMeta {
	if c == nil {
		return nil
	}
	return &CorpusMeta{
		NumDocs:     len(c.Docs),
		TotalTokens: c.TotalTokens(),
		WordCounts:  c.WordCounts(),
	}
}

// RolePhrasesOf collects every topic's ranked phrase list from a
// phrase-enriched hierarchy (AttachPhrases output) in pre-order — the
// snapshot's roles section.
func RolePhrasesOf(h *Hierarchy) []TopicPhrases {
	if h == nil {
		return nil
	}
	var out []TopicPhrases
	h.Root.Walk(func(n *TopicNode) {
		out = append(out, TopicPhrases{Path: n.Path, Phrases: n.Phrases})
	})
	return out
}

// Artifact aggregates the persistable mining outputs of one fit. Every
// field is optional; Save writes a section per present field and Load
// restores exactly the sections the file carries.
type Artifact struct {
	// Hierarchy is a (possibly phrase-enriched) topical hierarchy.
	Hierarchy *Hierarchy
	// Topics is a flat topic model; with NKV/NK present, fold-in inference
	// (Artifact.Infer, lesmd /infer) uses the exact fitted statistics.
	Topics *TopicModel
	// Vocab maps word ids to strings for rendering and query encoding.
	Vocab *Vocabulary
	// Corpus is the fitting corpus's metadata.
	Corpus *CorpusMeta
	// RolePhrases is the role analyzer's per-topic ranked phrase view.
	RolePhrases []TopicPhrases
	// Advisor is a mined advisor-advisee ranking.
	Advisor *AdvisorResult

	// foldOnce caches the frozen fold-in model: checking or deriving the
	// smoothed distributions and building the MH tables are O(K·V), too
	// much to repeat on every Infer call against an immutable model.
	// Callers must not mutate Topics after the first Infer or Save.
	// foldTables is the snapshot's foldin section when the artifact was
	// loaded from one; the model adopts its tables instead of building.
	foldOnce   sync.Once
	foldModel  *lda.FoldInModel
	foldErr    error
	foldTables *store.FoldIn

	// searchOnce caches the entity search index: building it walks every
	// name the artifact carries, so it is derived once per immutable
	// artifact like the fold-in model above.
	searchOnce sync.Once
	searchIdx  *search.Index
}

// SearchIndex is the entity search index over everything an artifact (or
// snapshot) knows by name, with edit-distance-tolerant lookup — see
// internal/search.
type SearchIndex = search.Index

// SearchHit is one ranked, typed search result.
type SearchHit = search.Hit

// SearchKind types a search hit: word, phrase or author.
type SearchKind = search.Kind

// Search hit kinds.
const (
	SearchWord   = search.KindWord
	SearchPhrase = search.KindPhrase
	SearchAuthor = search.KindAuthor
)

// Sections lists the snapshot sections Save writes for this artifact, in
// file order. When that includes the foldin section, the first call
// builds (and caches) the fold-in tables.
func (a *Artifact) Sections() []string { return a.persisted().Sections() }

// SearchIndex returns the artifact's entity search index — the same
// tokenized inverted index with fuzzy matching that lesmd serves /search
// and /entity/:name from — built lazily on first use and cached. The
// build is deterministic per artifact content. Callers must not mutate
// the artifact's name-bearing fields (Vocab, Hierarchy, RolePhrases,
// Advisor) after the first call.
func (a *Artifact) SearchIndex() *SearchIndex {
	a.searchOnce.Do(func() { a.searchIdx = search.FromSnapshot(a.snapshot()) })
	return a.searchIdx
}

// Infer runs deterministic fold-in Gibbs inference for unseen documents
// against the artifact's frozen topic model: theta[d][k] is document d's
// topic distribution. Identical (seed, document index, tokens) give
// identical results at any parallelism level. The artifact must carry a
// topic model.
func (a *Artifact) Infer(docs [][]int, seed int64, opts ...RunOptions) ([][]float64, error) {
	fm, err := a.foldInModel()
	if err != nil {
		return nil, err
	}
	ro := firstRunOptions(opts)
	return lda.FoldIn(fm, docs, lda.FoldInConfig{
		Seed: seed, P: ro.Parallelism, Rec: ro.Recorder, Ctx: ro.Ctx,
	})
}

// InferText tokenizes raw text through the pipeline, encodes it with the
// artifact's vocabulary (unknown words dropped) and folds it in.
func (a *Artifact) InferText(texts []string, p Pipeline, seed int64, opts ...RunOptions) ([][]float64, error) {
	if a.Vocab == nil {
		return nil, errors.New("lesm: artifact has no vocabulary; use Infer with token ids")
	}
	docs := make([][]int, len(texts))
	for i, text := range texts {
		var ids []int
		for _, tok := range p.Process(text) {
			if id, ok := a.Vocab.ID(tok); ok {
				ids = append(ids, id)
			}
		}
		docs[i] = ids
	}
	return a.Infer(docs, seed, opts...)
}

func (a *Artifact) foldInModel() (*lda.FoldInModel, error) {
	a.foldOnce.Do(func() {
		t := a.Topics
		if t == nil {
			a.foldErr = errors.New("lesm: artifact has no topic model")
			return
		}
		// The fold-in prior is deliberately NOT the fitting alpha (50/K by
		// convention): that prior is calibrated for whole training
		// documents and bounds a short query document's theta to
		// near-uniform regardless of content.
		s := &store.Snapshot{Topics: storeTopics(t), FoldIn: a.foldTables}
		a.foldModel = s.FoldInModel(lda.DefaultFoldInAlpha)
	})
	return a.foldModel, a.foldErr
}

// snapshot converts the artifact to the store's section set.
func (a *Artifact) snapshot() *store.Snapshot {
	s := &store.Snapshot{
		Hierarchy:   a.Hierarchy,
		Corpus:      a.Corpus,
		RolePhrases: a.RolePhrases,
	}
	if a.Vocab != nil {
		s.Vocab = a.Vocab.Words()
	}
	if a.Topics != nil {
		s.Topics = storeTopics(a.Topics)
	}
	if a.Advisor != nil {
		s.Advisor = &store.Advisor{Net: a.Advisor.res.Net, Rank: a.Advisor.res.Rank}
	}
	return s
}

// storeTopics is the snapshot form of a topic model.
func storeTopics(t *TopicModel) *store.Topics {
	v := 0
	if len(t.Phi) > 0 {
		v = len(t.Phi[0])
	}
	return &store.Topics{
		K: len(t.Phi), V: v, Weight: t.Weight, Phi: t.Phi,
		Alpha: t.Alpha, Beta: t.Beta, NKV: t.NKV, NK: t.NK,
	}
}

func artifactFromSnapshot(s *store.Snapshot) *Artifact {
	a := &Artifact{
		Hierarchy:   s.Hierarchy,
		Corpus:      s.Corpus,
		RolePhrases: s.RolePhrases,
		foldTables:  s.FoldIn,
	}
	if s.Vocab != nil {
		a.Vocab = textkit.VocabularyFromWords(s.Vocab)
	}
	if t := s.Topics; t != nil {
		a.Topics = &TopicModel{
			Phi: t.Phi, Weight: t.Weight, NKV: t.NKV, NK: t.NK,
			Alpha: t.Alpha, Beta: t.Beta,
		}
	}
	if s.Advisor != nil {
		a.Advisor = &AdvisorResult{res: &tpfg.Result{Net: s.Advisor.Net, Rank: s.Advisor.Rank}}
	}
	return a
}

// Save persists the artifact to path in the versioned binary snapshot
// format (magic + section table + per-section CRC; see internal/store).
// Encoding is deterministic — the same artifact always produces the same
// bytes — and Load(Save(a)) re-encodes byte-identically.
//
// When the artifact carries a topic model, Save also writes the foldin
// section: fold-in's per-word alias tables at lda.DefaultFoldInAlpha
// (lesmd's default prior), which a server adopts from the file instead
// of building them at every load. The tables are the ones Infer uses,
// built once and cached on the artifact.
func Save(path string, a *Artifact) error {
	if a == nil {
		return errors.New("lesm: nil artifact")
	}
	return store.Write(path, a.persisted())
}

// persisted is the snapshot Save writes: the artifact's sections plus,
// for a topic model that yields a fold-in model, the foldin section built
// from (and cached with) the fold-in model Infer uses.
func (a *Artifact) persisted() *store.Snapshot {
	s := a.snapshot()
	if t := s.Topics; t != nil {
		if fm, _ := a.foldInModel(); fm != nil && fm.K() == t.K && fm.V() == t.V {
			s.FoldIn = store.NewFoldIn(fm, lda.DefaultFoldInAlpha)
		}
	}
	return s
}

// Load reads an artifact persisted by Save, verifying the per-section
// checksums and the sections' cross-field shape invariants. The result can
// be queried directly (Infer, the typed fields) or served with cmd/lesmd.
func Load(path string) (*Artifact, error) {
	s, err := store.Read(path)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return artifactFromSnapshot(s), nil
}

// LoadMapped is Load through the zero-copy mmap decode path: the big
// numeric sections (topic count tables, phi rows, ranks) alias a
// read-only mapping of the file instead of being copied to the heap, so
// opening a large model costs page tables rather than resident memory and
// pages fault in lazily as queries touch them. Checksums and shape
// invariants are verified exactly as in Load.
//
// The returned closer releases the mapping. It must stay open for as long
// as any part of the artifact is in use, and the artifact must be treated
// as strictly read-only — writing through an aliased slice faults. Use
// Load when you need a mutable or mapping-independent artifact.
func LoadMapped(path string) (*Artifact, io.Closer, error) {
	m, err := store.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	s := m.Snapshot()
	if err := s.Validate(); err != nil {
		m.Close()
		return nil, nil, err
	}
	return artifactFromSnapshot(s), m, nil
}
