// Package experiments regenerates every table and figure of the paper's
// evaluation chapters on the synthetic stand-in datasets ("Stand-ins" in
// docs/ARCHITECTURE.md; Registry maps experiment ids to paper artifacts).
// Each experiment accepts a scale factor
// in (0, 1] that shrinks workloads proportionally, so the same code drives
// the full `cmd/repro` runs, the unit tests and the benchmarks.
package experiments
