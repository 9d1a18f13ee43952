// Package search builds a tokenized inverted index over everything a
// snapshot knows by name — vocabulary words, phrase displays, and author
// ids/labels — with edit-distance-tolerant lookup (bounded Levenshtein,
// the "~2" fuzzy pattern: exact below 3 runes, one edit up to 5, two
// beyond).
//
// A query token that is not an exact dictionary hit is matched by walking
// the sorted term dictionary as an implicit trie: Build records, for each
// term, the rune length of the prefix it shares with the previous term,
// and the walk keeps one banded Levenshtein row per depth of the current
// path, so consecutive terms share the rows of their common prefix and a
// prefix whose row passes the bound is skipped with everything below it.
// The walk returns exactly the terms a full scan would; its row stack is
// bounded by the query's length, not the dictionary's.
//
// The index is a few flat arrays: the posting lists in compressed sparse
// rows, a table of entry ids sorted by folded name for exact lookups, and
// no entry records (they are read from the Source the index keeps).
// Build sorts (token, entry) pairs instead of filling maps, so an index
// holds little heap and few pointers for the collector to mark.
//
// An Index is immutable after Build and safe for concurrent lock-free
// reads, so the serving tier builds one per snapshot generation inside
// its artifact-build path and swaps it with the rest of the generation
// behind an atomic.Pointer. Build is deterministic: the same snapshot
// always yields a bit-identical index (Checksum-gated by tests), keeping
// the serving tier's reproducibility contract intact.
package search
