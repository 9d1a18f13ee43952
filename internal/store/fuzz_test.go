package store

import (
	"bytes"
	"math"
	"testing"

	"lesm/internal/lda"
)

// FuzzDecode drives arbitrary bytes through both decode paths. The
// contract under fuzzing:
//
//   - neither the copying nor the zero-copy decoder may panic, hang, or
//     allocate unboundedly — corrupt input always returns an error;
//   - the two paths agree: same accept/reject decision, and accepted
//     inputs decode to snapshots that re-encode to the same bytes;
//   - anything accepted survives Encode (round-trip closure);
//   - Validate returns on anything accepted, and whatever passes it folds
//     a short document in through the MH core without panicking — at the
//     foldin section's own prior, so its stored tables are adopted.
//
// Seeds cover every section plus the known corruption classes the unit
// tests pin (truncation, CRC flip, version skew, and a foldin section with
// an alias index of K, a NaN prob, or a shape disagreeing with topics).
func FuzzDecode(f *testing.F) {
	full, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	if b, err := Encode(&Snapshot{Vocab: []string{"a", "bb", "ccc"}}); err == nil {
		f.Add(b)
	}
	if b, err := Encode(&Snapshot{Topics: sampleSnapshot().Topics}); err == nil {
		f.Add(b)
	}
	if b, err := Encode(&Snapshot{Hierarchy: sampleHierarchy()}); err == nil {
		f.Add(b)
	}
	if b, err := Encode(&Snapshot{Advisor: sampleSnapshot().Advisor}); err == nil {
		f.Add(b)
	}
	f.Add(full[:len(Magic)+6])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	for _, corrupt := range []func(fi *FoldIn){
		func(*FoldIn) {},
		func(fi *FoldIn) { fi.Alias[0] = int32(fi.K) },
		func(fi *FoldIn) { fi.Prob[1] = math.NaN() },
		func(fi *FoldIn) { fi.K, fi.V = fi.V, fi.K },
	} {
		s := foldInSnapshot()
		fi := *s.FoldIn
		fi.Prob = append([]float64(nil), fi.Prob...)
		fi.Alias = append([]int32(nil), fi.Alias...)
		corrupt(&fi)
		s.FoldIn = &fi
		if b, err := Encode(s); err == nil {
			f.Add(b)
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-5] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		zs, zerr := decode(append([]byte(nil), b...), true)
		if (err == nil) != (zerr == nil) {
			t.Fatalf("decode paths disagree: copy err=%v, zero-copy err=%v", err, zerr)
		}
		if err != nil {
			return
		}
		e1, err1 := Encode(s)
		e2, err2 := Encode(zs)
		if err1 != nil || err2 != nil {
			t.Fatalf("accepted input fails re-encode: %v / %v", err1, err2)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("decode paths produced different snapshots (%d vs %d bytes)", len(e1), len(e2))
		}
		// Shape validation must return, never panic, on anything decodable.
		if s.Validate() != nil {
			return
		}
		alpha := lda.DefaultFoldInAlpha
		if s.FoldIn != nil {
			alpha = s.FoldIn.Alpha
		}
		if fm := zs.FoldInModel(alpha); fm != nil {
			_, _ = lda.FoldIn(fm, [][]int{{0, 1, 2, 1, 0}}, lda.FoldInConfig{Seed: 1, Sweeps: 2, P: 1})
		}
	})
}
