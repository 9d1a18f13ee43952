// Package store persists fitted mining artifacts — topical hierarchies,
// topic models with their fold-in sufficient statistics, per-topic ranked
// phrases, advisor rankings, and vocabulary/corpus metadata — in a
// versioned, self-describing binary snapshot format.
//
// A snapshot is the hand-off point between the batch side of the framework
// (fit once, expensively) and the serving side (internal/serve, cmd/lesmd:
// load once, answer many read-only queries). The format is deterministic:
// encoding the same Snapshot value always yields the same bytes, and
// Decode(Encode(s)) re-encodes byte-identically, so snapshots can be
// content-addressed, diffed, and cached safely.
//
// Layout (all integers little-endian):
//
//	magic "LESMSNAP" | version u32 | section count u32
//	section table: per section, name (u32 len + bytes) | offset u64 |
//	               length u64 | CRC32 (IEEE) u32
//	zero padding to an 8-byte boundary
//	section payloads, concatenated in table order, each starting 8-aligned
//
// Sections appear in a fixed canonical order ("vocab", "corpus", "topics",
// "foldin", "hier", "roles", "advisor") and only when present. Every
// section's CRC is verified on load; unknown section names are skipped, so
// newer writers stay readable by older readers. The optional "foldin"
// section (FoldIn) stores the MH fold-in core's per-word alias tables for
// the topics at one document prior; it rode in without a version bump for
// exactly that reason, and a reader without it builds the tables itself.
//
// Since format version 2 every payload primitive is a multiple of 8 bytes
// wide (strings and 4-byte int32 arrays are zero-padded), so the numeric
// arrays sit 8-aligned in the file. That
// enables the zero-copy read path: OpenMapped memory-maps a snapshot
// read-only and decodes it with []int/[]float64/[]int32/string views aliasing the
// mapped bytes — opening a huge model costs page tables instead of heap,
// pages fault in lazily, and the per-section CRCs are still verified at
// open. Decode the ordinary way (Read/Decode) when the caller needs a
// mutable, mapping-independent snapshot; the zero-copy decoder also falls
// back to copying per array when alignment or the platform (big-endian,
// 32-bit int) rules aliasing out. FuzzDecode drives both paths and pins
// their agreement.
package store
