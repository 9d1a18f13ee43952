package store

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestEncodeBytesGolden pins the bytes Encode writes for a snapshot with
// every section, so a change to the container writer that moves a byte
// shows here before it reaches a published file.
func TestEncodeBytesGolden(t *testing.T) {
	s := sampleSnapshot()
	s.FoldIn = NewFoldIn(s.FoldInModel(0.1), 0.1)
	if got := s.Sections(); !reflect.DeepEqual(got, sectionOrder) {
		t.Fatalf("fixture sections = %v, want every section %v", got, sectionOrder)
	}
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ecc9042e329faf3306e7d8d0e5b548f0e408baac2fa38ec0d741482f7a4dc905"
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
		t.Errorf("Encode sha256 = %x (%d bytes), want %s", sum, len(b), want)
	}
}

// TestEncodeCheckpointBytesGolden pins the bytes EncodeCheckpoint writes
// for the dense core's checkpoint and for the MH core's, which adds the
// alias source counts.
func TestEncodeCheckpointBytesGolden(t *testing.T) {
	for _, c := range []struct {
		withMH bool
		want   string
	}{
		{false, "9974cbc9bdb6b89f8018d586c2cba92111f08ad2a9c4d7750450b37cae7b92da"},
		{true, "bd0a073962c21f07062e5d315403734b8535054dffda5eff9dee8951a25ae640"},
	} {
		b, err := EncodeCheckpoint(sampleCheckpoint(c.withMH))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("withMH=%t: EncodeCheckpoint sha256 = %x (%d bytes), want %s", c.withMH, sum, len(b), c.want)
		}
	}
}
