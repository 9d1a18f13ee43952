// Package par is the shared parallel runtime of the mining engines: a
// bounded worker pool with deterministic chunked execution, ordered
// reduction, and context-based cancellation. It is the scalability
// substrate behind the paper's corpus-scale ambitions (Chapter 7).
//
// Every engine in the repo (CATHY EM, STROD moment accumulation, ToPMine
// mining and segmentation, TPFG message passing, the PhraseLDA Gibbs
// sweeps, relcrf mini-batch training) funnels its hot loops through this
// package. The central guarantee is determinism: a range of n items is
// always split into the same chunks regardless of how many workers execute
// them — the chunk count is n-dependent but P-independent (NumChunks) —
// and reductions merge per-chunk accumulators in chunk order.
// Floating-point results are therefore bit-identical at any parallelism
// level, the invariant the engines' same-seed reproducibility tests rely
// on. Large inputs expose up to MaxChunks (256) chunks, so machines well
// past 16 cores keep scaling.
//
// The collapsed Gibbs samplers (internal/lda's fits, internal/tng) share
// one chunked delayed-update pass driver, Sweeper. It splits the documents
// into the SamplerChunks chunking and keeps one Padded slot per worker,
// holding the engine's state next to the PRNG stream it reseeds to
// (seed, doc, sweep) before every document. The state holds a live chunk
// delta and a pass accumulator: a fold hook at each chunk's end adds the
// chunk's changes into the accumulator and resets them, an end hook runs
// while the global tables are still frozen, and the accumulators then
// merge into the globals in parallel, one worker per stripe of cells.
// Delta is the dirty-tracked live diff over a flat []int count table, so a
// fold visits only the cells the chunk touched; Acc, the accumulator, is
// the folded (cell, change) pairs listed by stripe, so a stripe's merge
// walks only its own pairs.
//
// Worker-private mutable state lives in a Padded slot, and every array a
// worker writes is allocated by PadSlice: each pads its value with
// CacheGuard (128) bytes on both sides, so no 128-byte-aligned block holds
// words of two workers. One goroutine allocating all slots' state back to
// back otherwise puts neighbours on shared cache lines, and two workers
// writing their own words on one line invalidate each other on every
// write (false sharing), which made P=2 Gibbs fits slower than P=1. The
// classes found in the samplers: a contiguous []T of small per-slot values
// (8-byte PRNG streams), adjacent small structs (count-delta and MH
// headers with their per-token counters), small per-slot arrays of one
// size class interleaved across slots (per-topic totals, probability
// scratch and cached denominators at small K), and Go map headers, which
// every assignment writes and which keep no padding — keep maps out of
// per-token worker state.
package par
