package store

import (
	"bytes"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lesm/internal/lda"
)

// sampleCheckpoint builds a fully-populated mid-fit checkpoint with an
// empty document: the dense core's, or the MH core's with alias source
// counts.
func sampleCheckpoint(withMH bool) *lda.Checkpoint {
	cp := &lda.Checkpoint{
		Fingerprint: lda.Fingerprint{
			Engine: "lda", Sampler: lda.SamplerDense, K: 2, V: 3,
			Alpha: 0.5, Beta: 0.01, Iters: 20, Seed: 42,
			AliasRefresh: 3, Docs: 3, Tokens: 5, CorpusHash: 0xfeedbeefcafe,
		},
		Sweep: 14,
		Z:     [][]int{{0, 1, 1}, {1, 0}, {}},
	}
	if withMH {
		cp.Fingerprint.Sampler = lda.SamplerMH
		cp.AliasRebuilds = 5
		cp.MHStale = 2
		cp.MHSourceKV = [][]int{{1, 2, 0}, {0, 1, 1}}
	}
	return cp
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, withMH := range []bool{false, true} {
		cp := sampleCheckpoint(withMH)
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatalf("withMH=%t: %v", withMH, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("withMH=%t: round trip drift:\nwant %+v\ngot  %+v", withMH, cp, got)
		}
		b2, err := EncodeCheckpoint(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("withMH=%t: re-encode not byte-identical", withMH)
		}
	}
}

// TestCheckpointTruncationRejected cuts the file at EVERY prefix length:
// no truncation may be accepted (a torn write must never load).
func TestCheckpointTruncationRejected(t *testing.T) {
	b, err := EncodeCheckpoint(sampleCheckpoint(true))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeCheckpoint(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(b))
		}
	}
}

// TestCheckpointBitFlips flips every byte of the file, one at a time.
// Each flip must either be rejected or decode to exactly the original
// checkpoint (flips in alignment padding are invisible by design —
// padding carries no data).
func TestCheckpointBitFlips(t *testing.T) {
	cp := sampleCheckpoint(true)
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0xff
		got, err := DecodeCheckpoint(bad)
		if err != nil {
			continue
		}
		accepted++
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("flip at byte %d accepted AND decoded to a different checkpoint", i)
		}
	}
	// Sanity: the loop exercised real rejections, not a vacuous decoder.
	if accepted >= len(b)/2 {
		t.Fatalf("%d/%d single-byte flips accepted — corruption detection is not working", accepted, len(b))
	}
}

func TestCheckpointMagicAndVersionRejected(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("LESMSNAPxxxxxxxx")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("snapshot magic accepted by checkpoint decoder: err = %v", err)
	}
	b, err := EncodeCheckpoint(sampleCheckpoint(false))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[len(CkptMagic)] = 99
	if _, err := DecodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: err = %v", err)
	}
	// And the snapshot reader must likewise refuse a checkpoint file.
	if _, err := Decode(b); err == nil {
		t.Fatal("checkpoint file accepted by the snapshot decoder")
	}
}

// TestCheckpointSectionNameFlip: the section table itself is not
// checksummed, so a corrupted *name* cannot be caught by a CRC — the
// required-section check has to catch it instead of quietly decoding an
// emptier checkpoint.
func TestCheckpointSectionNameFlip(t *testing.T) {
	b, err := EncodeCheckpoint(sampleCheckpoint(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{CkptSecMeta, CkptSecZ} {
		bad := append([]byte(nil), b...)
		i := bytes.Index(bad, []byte(name))
		if i < 0 {
			t.Fatalf("section name %q not found in header", name)
		}
		bad[i] = 'x'
		if _, err := DecodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "missing required") {
			t.Fatalf("flipped %q name accepted: err = %v", name, err)
		}
	}
}

// TestCheckpointDuplicateSectionRejected hand-crafts a file whose table
// lists the z section twice (both entries CRC-valid): a duplicate must
// be rejected, not last-entry-wins silently.
func TestCheckpointDuplicateSectionRejected(t *testing.T) {
	cp := sampleCheckpoint(false)
	var meta, z enc
	encodeCkptMeta(&meta, cp)
	encodeIntTable(&z, cp.Z)
	names := []string{CkptSecMeta, CkptSecZ, CkptSecZ}
	payloads := [][]byte{meta.buf, z.buf, z.buf}

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
	if _, err := DecodeCheckpoint(e.buf); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicated z section accepted: err = %v", err)
	}
}

// TestCheckpointSemanticCorruptionRejected: CRC-valid files whose values
// are out of range (a fuzzer's or an attacker's checkpoint) are rejected
// by shape validation before they can reach a resume.
func TestCheckpointSemanticCorruptionRejected(t *testing.T) {
	cases := []struct {
		name string
		mut  func(cp *lda.Checkpoint)
	}{
		{"zero-k", func(cp *lda.Checkpoint) { cp.Fingerprint.K = 0 }},
		{"zero-v", func(cp *lda.Checkpoint) { cp.Fingerprint.V = 0 }},
		{"sweep-zero", func(cp *lda.Checkpoint) { cp.Sweep = 0 }},
		{"sweep-past-iters", func(cp *lda.Checkpoint) { cp.Sweep = cp.Fingerprint.Iters + 1 }},
		{"doc-count", func(cp *lda.Checkpoint) { cp.Fingerprint.Docs = 99 }},
		{"topic-range", func(cp *lda.Checkpoint) { cp.Z[0][0] = cp.Fingerprint.K }},
		{"negative-topic", func(cp *lda.Checkpoint) { cp.Z[1][0] = -1 }},
		{"negative-rebuilds", func(cp *lda.Checkpoint) { cp.AliasRebuilds = -1 }},
		{"negative-stale", func(cp *lda.Checkpoint) { cp.MHStale = -1 }},
		{"mh-topic-rows", func(cp *lda.Checkpoint) { cp.MHSourceKV = cp.MHSourceKV[:1] }},
		{"mh-word-cols", func(cp *lda.Checkpoint) { cp.MHSourceKV[0] = cp.MHSourceKV[0][:2] }},
		{"mh-negative-count", func(cp *lda.Checkpoint) { cp.MHSourceKV[1][0] = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := sampleCheckpoint(true)
			tc.mut(cp)
			b, err := EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(b); err == nil {
				t.Fatal("semantically corrupt checkpoint accepted")
			}
		})
	}
}

// TestCheckpointUnresolvedSamplerRejected: a fit records the core it
// resolved to, so a checkpoint naming anything but dense or mh is
// rejected at decode — including checkpoints of the removed sparse core
// (with the removal message) and an empty, unresolved name.
func TestCheckpointUnresolvedSamplerRejected(t *testing.T) {
	cases := []struct {
		sampler lda.Sampler
		want    string
	}{
		{"sparse", "removed"},
		{"", "no resolved sampling core"},
		{"turbo", "unknown sampler"},
	}
	for _, tc := range cases {
		cp := sampleCheckpoint(false)
		cp.Fingerprint.Sampler = tc.sampler
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("sampler %q: err = %v, want it to mention %q", tc.sampler, err, tc.want)
		}
		path := filepath.Join(t.TempDir(), "old.ckpt")
		if err := WriteCheckpoint(path, cp); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); err == nil {
			t.Fatalf("sampler %q: ReadCheckpoint accepted the file", tc.sampler)
		}
	}
}

func TestWriteReadCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fit.ckpt")
	cp := sampleCheckpoint(true)
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatal("file round trip drift")
	}
	if err := WriteCheckpoint(path, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

// FuzzDecodeCheckpoint drives arbitrary bytes through the checkpoint
// decoder: it may never panic or hang, and anything it accepts must
// survive the re-encode/re-decode closure byte-identically.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, withMH := range []bool{false, true} {
		b, err := EncodeCheckpoint(sampleCheckpoint(withMH))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)-5] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte(CkptMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		e1, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("accepted input fails re-encode: %v", err)
		}
		cp2, err := DecodeCheckpoint(e1)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		e2, err := EncodeCheckpoint(cp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatal("re-encode not a fixed point")
		}
	})
}
