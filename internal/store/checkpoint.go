package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"lesm/internal/lda"
)

// Fit-checkpoint persistence: the LESMCKPT container for lda.Checkpoint.
//
// The layout mirrors the snapshot format (magic, version, CRC-gated
// section table, 8-aligned payloads) so the two share the binary
// primitives and the atomic write path, but it is a separate container
// with its own magic: a checkpoint is transient fit state, not a
// servable artifact, and neither reader should ever accept the other's
// files. Unlike the snapshot decoder — where any subset of sections is
// a valid (sparse) snapshot — a checkpoint is all-or-nothing: the meta
// and assignment sections are required, so a corrupted section *name*
// (which the per-section CRC cannot see, as the table itself is
// unchecksummed) demotes the file to "rejected", never to a silently
// emptier checkpoint.

// CkptMagic identifies a lesm fit-checkpoint file.
const CkptMagic = "LESMCKPT"

// CkptVersion is the current checkpoint format version; decode accepts
// exactly this version.
//
//	1: meta (fingerprint + sweep + MH scalars), z (assignments), and an
//	   optional mh (MH alias-source counts) section (PR 9).
const CkptVersion = 1

// Checkpoint section names, in canonical file order.
const (
	CkptSecMeta = "ckmeta"
	CkptSecZ    = "ckz"
	CkptSecMH   = "ckmh"
)

// EncodeCheckpoint serializes a checkpoint. The output is a pure
// function of the checkpoint value.
func EncodeCheckpoint(cp *lda.Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, errors.New("store: nil checkpoint")
	}
	names := []string{CkptSecMeta, CkptSecZ}
	var payloads [][]byte
	{
		var e enc
		encodeCkptMeta(&e, cp)
		payloads = append(payloads, e.buf)
	}
	{
		var e enc
		encodeIntTable(&e, cp.Z)
		payloads = append(payloads, e.buf)
	}
	if cp.MHSourceKV != nil {
		var e enc
		encodeIntTable(&e, cp.MHSourceKV)
		names = append(names, CkptSecMH)
		payloads = append(payloads, e.buf)
	}

	headerSize := len(CkptMagic) + 4 + 4
	for _, name := range names {
		headerSize += 4 + len(name) + 8 + 8 + 4
	}
	var e enc
	e.buf = append(e.buf, CkptMagic...)
	e.u32(CkptVersion)
	e.u32(uint32(len(names)))
	offset := uint64(headerSize + pad8(headerSize))
	for i, name := range names {
		e.rawStr(name)
		e.u64(offset)
		e.u64(uint64(len(payloads[i])))
		e.u32(crc32.ChecksumIEEE(payloads[i]))
		offset += uint64(len(payloads[i]) + pad8(len(payloads[i])))
	}
	e.buf = append(e.buf, zeros[:pad8(len(e.buf))]...)
	for _, p := range payloads {
		e.buf = append(e.buf, p...)
		e.buf = append(e.buf, zeros[:pad8(len(p))]...)
	}
	return e.buf, nil
}

// DecodeCheckpoint parses, CRC-verifies and shape-validates a
// checkpoint. Rejection is loud and total: any truncation, checksum
// mismatch, missing required section, or out-of-range value fails the
// whole load — there is no partially-decoded checkpoint.
func DecodeCheckpoint(b []byte) (*lda.Checkpoint, error) {
	if len(b) < len(CkptMagic)+8 || string(b[:len(CkptMagic)]) != CkptMagic {
		return nil, errors.New("store: not a lesm checkpoint (bad magic)")
	}
	d := &dec{buf: b, off: len(CkptMagic)}
	if v := d.u32("version"); v != CkptVersion {
		return nil, fmt.Errorf("store: unsupported checkpoint version %d (want %d)", v, CkptVersion)
	}
	count := d.u32("section count")
	if count > uint32((len(b)-d.off)/24) {
		return nil, fmt.Errorf("store: corrupt checkpoint section count %d", count)
	}
	cp := &lda.Checkpoint{}
	seen := map[string]bool{}
	for i := uint32(0); i < count; i++ {
		name := d.rawStr("section name")
		off := d.u64("section offset")
		length := d.u64("section length")
		crc := d.u32("section crc")
		if d.err != nil {
			return nil, d.err
		}
		if off > uint64(len(b)) || length > uint64(len(b))-off {
			return nil, fmt.Errorf("store: checkpoint section %q out of bounds", name)
		}
		payload := b[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("store: checkpoint section %q CRC mismatch (file %08x, computed %08x)", name, crc, got)
		}
		if seen[name] {
			return nil, fmt.Errorf("store: duplicate checkpoint section %q", name)
		}
		seen[name] = true
		pd := &dec{buf: payload}
		switch name {
		case CkptSecMeta:
			decodeCkptMeta(pd, cp)
		case CkptSecZ:
			cp.Z = decodeIntTable(pd, "checkpoint z")
		case CkptSecMH:
			cp.MHSourceKV = decodeIntTable(pd, "checkpoint mh source")
		default:
			continue // unknown section: forward compatibility
		}
		if pd.err != nil {
			return nil, fmt.Errorf("store: checkpoint section %q: %w", name, pd.err)
		}
	}
	if !seen[CkptSecMeta] || !seen[CkptSecZ] {
		return nil, fmt.Errorf("store: checkpoint missing required sections (have meta=%t, z=%t)", seen[CkptSecMeta], seen[CkptSecZ])
	}
	if err := validateCheckpoint(cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// validateCheckpoint enforces the internal consistency a checkpoint
// captured by a fit always has, so a CRC-valid but semantically
// corrupted file (or a fuzzer-built one) cannot reach the resume path
// with out-of-range indices. The resume path re-checks everything
// against its own run; this guards the decoded value itself.
func validateCheckpoint(cp *lda.Checkpoint) error {
	fp := cp.Fingerprint
	if fp.K < 1 {
		return fmt.Errorf("store: checkpoint K = %d, need >= 1", fp.K)
	}
	if fp.V < 1 {
		return fmt.Errorf("store: checkpoint V = %d, need >= 1", fp.V)
	}
	kTotal := fp.K
	if fp.Background {
		kTotal++
	}
	if cp.Sweep < 1 || cp.Sweep > fp.Iters {
		return fmt.Errorf("store: checkpoint sweep %d outside [1, %d]", cp.Sweep, fp.Iters)
	}
	if len(cp.Z) != fp.Docs {
		return fmt.Errorf("store: checkpoint has %d documents, fingerprint says %d", len(cp.Z), fp.Docs)
	}
	for di, zd := range cp.Z {
		for i, k := range zd {
			if k < 0 || k >= kTotal {
				return fmt.Errorf("store: checkpoint doc %d slot %d: topic %d outside [0, %d)", di, i, k, kTotal)
			}
		}
	}
	// A fit records the core it resolved to, so anything but dense or mh
	// — auto (""), the removed "sparse" core, an unknown name — cannot
	// come from a resumable fit.
	if err := fp.Sampler.Validate(); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if fp.Sampler == lda.SamplerAuto {
		return errors.New("store: checkpoint names no resolved sampling core (want dense or mh)")
	}
	if cp.AliasRebuilds < 0 || cp.MHStale < 0 {
		return fmt.Errorf("store: checkpoint negative MH counters (rebuilds %d, stale %d)", cp.AliasRebuilds, cp.MHStale)
	}
	// The MH section is optional in the container but not independent of
	// the meta: an MH fit's checkpoint always carries its alias source
	// counts, and no other core's ever does. Without this cross-check, a
	// corrupted section *name* (invisible to the payload CRCs) would
	// demote an MH checkpoint to a silently emptier file instead of a
	// rejected one.
	if isMH := fp.Sampler == lda.SamplerMH; isMH != (cp.MHSourceKV != nil) {
		return fmt.Errorf("store: checkpoint MH section presence (%t) inconsistent with sampler %q", cp.MHSourceKV != nil, fp.Sampler)
	}
	if cp.MHSourceKV != nil {
		if len(cp.MHSourceKV) != kTotal {
			return fmt.Errorf("store: checkpoint MH source table has %d topics, fingerprint says %d", len(cp.MHSourceKV), kTotal)
		}
		for k, row := range cp.MHSourceKV {
			if len(row) != fp.V {
				return fmt.Errorf("store: checkpoint MH source topic %d has %d words, vocabulary is %d", k, len(row), fp.V)
			}
			for w, c := range row {
				if c < 0 {
					return fmt.Errorf("store: checkpoint MH source count [%d][%d] = %d, need >= 0", k, w, c)
				}
			}
		}
	}
	return nil
}

// WriteCheckpoint persists a checkpoint at path with the same
// atomic-replace discipline as Write: any failure leaves the previous
// file (if one existed) intact and loadable.
func WriteCheckpoint(path string, cp *lda.Checkpoint) error {
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// ReadCheckpoint loads and validates the checkpoint at path.
func ReadCheckpoint(path string) (*lda.Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}

// --- checkpoint sections ---

func encodeCkptMeta(e *enc, cp *lda.Checkpoint) {
	fp := cp.Fingerprint
	e.str(fp.Engine)
	e.str(string(fp.Sampler))
	e.i64(int64(fp.K))
	e.i64(int64(fp.V))
	e.f64(fp.Alpha)
	e.f64(fp.Beta)
	e.f64(fp.BGWeight)
	bg := uint64(0)
	if fp.Background {
		bg = 1
	}
	e.u64(bg)
	e.i64(int64(fp.Iters))
	e.i64(fp.Seed)
	e.i64(int64(fp.AliasRefresh))
	e.i64(int64(fp.Docs))
	e.i64(fp.Tokens)
	e.u64(fp.CorpusHash)
	e.i64(int64(cp.Sweep))
	e.i64(int64(cp.AliasRebuilds))
	e.i64(int64(cp.MHStale))
}

func decodeCkptMeta(d *dec, cp *lda.Checkpoint) {
	fp := &cp.Fingerprint
	fp.Engine = d.str("meta engine")
	fp.Sampler = lda.Sampler(d.str("meta sampler"))
	fp.K = int(d.i64("meta K"))
	fp.V = int(d.i64("meta V"))
	fp.Alpha = d.f64("meta alpha")
	fp.Beta = d.f64("meta beta")
	fp.BGWeight = d.f64("meta bgWeight")
	fp.Background = d.u64("meta background") != 0
	fp.Iters = int(d.i64("meta iters"))
	fp.Seed = d.i64("meta seed")
	fp.AliasRefresh = int(d.i64("meta aliasRefresh"))
	fp.Docs = int(d.i64("meta docs"))
	fp.Tokens = d.i64("meta tokens")
	fp.CorpusHash = d.u64("meta corpusHash")
	cp.Sweep = int(d.i64("meta sweep"))
	cp.AliasRebuilds = int(d.i64("meta aliasRebuilds"))
	cp.MHStale = int(d.i64("meta mhStale"))
	if d.off != len(d.buf) && d.err == nil {
		d.fail("meta trailing bytes")
	}
}

// encodeIntTable stores a ragged [][]int (Z assignments, count tables).
func encodeIntTable(e *enc, t [][]int) {
	e.u64(uint64(len(t)))
	for _, row := range t {
		e.ints(row)
	}
}

func decodeIntTable(d *dec, what string) [][]int {
	n := d.length(8, what)
	out := make([][]int, n)
	for i := range out {
		row := d.ints(what + " row")
		if row == nil {
			// lda's init pass and restore both hand every document a
			// non-nil (possibly empty) row; preserve that so resumed and
			// fresh fits deep-compare equal even on empty documents.
			row = []int{}
		}
		out[i] = row
	}
	return out
}
