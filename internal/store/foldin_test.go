package store

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"lesm/internal/lda"
)

// foldInSnapshot is a three-topic, five-word Gibbs snapshot (Phi equal to
// the counts' smoothing) with its foldin section at alpha 0.1. K·V = 15
// is odd, so the int32 alias array ends in padding.
func foldInSnapshot() *Snapshot {
	t := &Topics{
		K: 3, V: 5, Alpha: 0.5, Beta: 0.01,
		Weight: []float64{0.5, 0.3, 0.2},
		NKV:    [][]int{{9, 0, 3, 1, 0}, {0, 7, 0, 2, 5}, {1, 1, 1, 1, 1}},
		NK:     []int{13, 14, 5},
	}
	t.Phi = lda.FoldInModelFromCounts(t.NKV, t.NK, 0, t.Beta).PhiLike
	s := &Snapshot{Vocab: []string{"a", "b", "c", "d", "e"}, Topics: t}
	s.FoldIn = NewFoldIn(s.FoldInModel(0.1), 0.1)
	return s
}

// TestFoldInRoundTrip: the section survives both decode paths bit for bit
// and re-encodes byte-identically; the zero-copy path aliases all three
// arrays and the copying fallback at a misaligned base agrees with it.
func TestFoldInRoundTrip(t *testing.T) {
	s := foldInSnapshot()
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FoldIn, s.FoldIn) {
		t.Fatalf("foldin section changed in the round trip: %+v vs %+v", got.FoldIn, s.FoldIn)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("a section NewFoldIn built fails Validate: %v", err)
	}
	if again, _ := Encode(got); !bytes.Equal(again, b) {
		t.Fatal("re-encoded snapshot differs")
	}
	if want := []string{SecVocab, SecTopics, SecFoldIn}; !reflect.DeepEqual(got.Sections(), want) {
		t.Fatalf("sections = %v, want %v", got.Sections(), want)
	}

	if nativeZeroCopy && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		zs, err := decode(b, true)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(&b[0]))
		inBuf := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(b)) }
		f := zs.FoldIn
		if !inBuf(unsafe.Pointer(&f.Mass[0])) || !inBuf(unsafe.Pointer(&f.Prob[0])) || !inBuf(unsafe.Pointer(&f.Alias[0])) {
			t.Fatal("zero-copy decode copied a foldin array")
		}
		if !reflect.DeepEqual(f, s.FoldIn) {
			t.Fatal("zero-copy foldin section disagrees with the original")
		}
	}
	shifted := make([]byte, len(b)+1)
	copy(shifted[1:], b)
	mis, err := decode(shifted[1:], true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mis.FoldIn, s.FoldIn) {
		t.Fatal("misaligned zero-copy decode disagrees with the original")
	}
}

// TestFoldInModelAdoptsSection: FoldInModel adopts the stored tables only
// at the stored alpha, bit for bit; at any other alpha it leaves the model
// to build its own, which then equal what NewFoldIn stores.
func TestFoldInModelAdoptsSection(t *testing.T) {
	s := foldInSnapshot()
	fm := s.FoldInModel(0.1)
	if tab := fm.Tables(); &tab.Prob[0] != &s.FoldIn.Prob[0] {
		t.Fatal("tables at the stored alpha were built, not adopted")
	}
	for _, alpha := range []float64{0.3, math.Nextafter(0.1, 1)} {
		if tab := s.FoldInModel(alpha).Tables(); &tab.Prob[0] == &s.FoldIn.Prob[0] {
			t.Fatalf("tables stored at alpha 0.1 adopted at alpha %v", alpha)
		}
	}
	bare := &Snapshot{Topics: s.Topics}
	built := bare.FoldInModel(0.1).Tables()
	if !reflect.DeepEqual(built, lda.FoldInTables{Mass: s.FoldIn.Mass, Prob: s.FoldIn.Prob, Alias: s.FoldIn.Alias}) {
		t.Fatal("tables built without the section differ from the stored ones")
	}
}

// TestFoldInValidateRejects: every way a CRC-valid foldin section can
// break what fold-in indexes or trusts is a Validate error.
func TestFoldInValidateRejects(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(s *Snapshot)
	}{
		{"alias = K", "alias", func(s *Snapshot) { s.FoldIn.Alias[4] = int32(s.FoldIn.K) }},
		{"negative alias", "alias", func(s *Snapshot) { s.FoldIn.Alias[0] = -1 }},
		{"NaN prob", "prob", func(s *Snapshot) { s.FoldIn.Prob[2] = math.NaN() }},
		{"prob above 1", "prob", func(s *Snapshot) { s.FoldIn.Prob[2] = 1.5 }},
		{"negative prob", "prob", func(s *Snapshot) { s.FoldIn.Prob[2] = -0.25 }},
		{"NaN mass", "mass", func(s *Snapshot) { s.FoldIn.Mass[1] = math.NaN() }},
		{"infinite mass", "mass", func(s *Snapshot) { s.FoldIn.Mass[1] = math.Inf(1) }},
		{"negative mass", "mass", func(s *Snapshot) { s.FoldIn.Mass[1] = -1 }},
		{"K disagrees with topics", "K=", func(s *Snapshot) { s.FoldIn.K = 2 }},
		{"V disagrees with topics", "K=", func(s *Snapshot) { s.FoldIn.V = 4 }},
		{"short alias array", "arrays", func(s *Snapshot) { s.FoldIn.Alias = s.FoldIn.Alias[:14] }},
		{"short mass array", "arrays", func(s *Snapshot) { s.FoldIn.Mass = s.FoldIn.Mass[:4] }},
		{"zero alpha", "alpha", func(s *Snapshot) { s.FoldIn.Alpha = 0 }},
		{"NaN alpha", "alpha", func(s *Snapshot) { s.FoldIn.Alpha = math.NaN() }},
		{"no topics", "without a topics", func(s *Snapshot) { s.Topics = nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := foldInSnapshot()
			// Corrupt decoded copies: the stored arrays are shared with a
			// model.
			b, err := Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if s, err = Decode(b); err != nil {
				t.Fatal(err)
			}
			c.corrupt(s)
			// Through the file too: the section is CRC-valid, so only
			// Validate stands between it and a handler.
			b, err = Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			err = got.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error about %q", err, c.want)
			}
		})
	}
}

// TestInt32sPadding: an odd-length int32 array is zero-padded to 8 bytes
// and the next field reads back intact on both decode paths.
func TestInt32sPadding(t *testing.T) {
	var e enc
	e.int32s([]int32{7, -3, 1 << 30})
	e.u64(0xfeedface)
	if len(e.buf) != 8+16+8 {
		t.Fatalf("encoded %d bytes, want 32", len(e.buf))
	}
	for _, zc := range []bool{false, true} {
		d := &dec{buf: append([]byte(nil), e.buf...), zc: zc}
		got := d.int32s("x")
		if tail := d.u64("tail"); d.err != nil || tail != 0xfeedface || !reflect.DeepEqual(got, []int32{7, -3, 1 << 30}) {
			t.Fatalf("zc=%v: got %v, tail %#x, err %v", zc, got, tail, d.err)
		}
	}
	d := &dec{buf: e.buf[:20]}
	if d.int32s("x"); d.err == nil {
		t.Fatal("truncated int32 array accepted")
	}
}
