package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// atEachP runs fn with GOMAXPROCS at 1 and at 2: the checksums and the
// value scans run on the pool, whose width is GOMAXPROCS, and the error a
// file earns must not depend on it.
func atEachP(t *testing.T, fn func(t *testing.T)) {
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			fn(t)
		})
	}
}

// tableEntry is one section table entry of an encoded snapshot, with the
// file offsets of its offset and CRC fields.
type tableEntry struct {
	name             string
	off, length      int
	offField, crcPos int
}

// sectionTable parses an encoded snapshot's section table.
func sectionTable(t *testing.T, b []byte) []tableEntry {
	t.Helper()
	pos := len(Magic) + 4
	count := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	var out []tableEntry
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(b[pos:]))
		en := tableEntry{name: string(b[pos+4 : pos+4+n])}
		pos += 4 + n
		en.offField = pos
		en.off = int(binary.LittleEndian.Uint64(b[pos:]))
		en.length = int(binary.LittleEndian.Uint64(b[pos+8:]))
		en.crcPos = pos + 16
		pos += 20
		out = append(out, en)
	}
	return out
}

// TestDecodeNamesFirstCorruptSection: a file with several bad sections is
// rejected for the first of them in table order, whether the later fault
// is a checksum or a section out of bounds, on both decode paths.
func TestDecodeNamesFirstCorruptSection(t *testing.T) {
	good, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	table := sectionTable(t, good)
	if len(table) < 4 {
		t.Fatalf("sample snapshot has %d sections, want at least 4", len(table))
	}
	flip := func(b []byte, en tableEntry) { b[en.off+en.length/2] ^= 0x5a }
	crcErr := func(b []byte, en tableEntry) string {
		return fmt.Sprintf("store: section %q CRC mismatch (file %08x, computed %08x)", en.name,
			binary.LittleEndian.Uint32(b[en.crcPos:]), crc32.ChecksumIEEE(b[en.off:en.off+en.length]))
	}
	cases := []struct {
		name    string
		corrupt func(b []byte)
		want    func(b []byte) string
	}{
		{"two checksums", func(b []byte) { flip(b, table[1]); flip(b, table[3]) },
			func(b []byte) string { return crcErr(b, table[1]) }},
		{"checksum then bounds", func(b []byte) {
			flip(b, table[1])
			binary.LittleEndian.PutUint64(b[table[2].offField:], uint64(len(b)))
		}, func(b []byte) string { return crcErr(b, table[1]) }},
		{"bounds then checksum", func(b []byte) {
			binary.LittleEndian.PutUint64(b[table[1].offField:], uint64(len(b)))
			flip(b, table[2])
		}, func([]byte) string { return fmt.Sprintf("store: section %q out of bounds", table[1].name) }},
		{"last only", func(b []byte) { flip(b, table[len(table)-1]) },
			func(b []byte) string { return crcErr(b, table[len(table)-1]) }},
	}
	atEachP(t, func(t *testing.T) {
		for _, c := range cases {
			b := append([]byte(nil), good...)
			c.corrupt(b)
			want := c.want(b)
			for _, zc := range []bool{false, true} {
				_, err := decode(b, zc)
				if err == nil || err.Error() != want {
					t.Errorf("%s (zero-copy %v): err = %v, want %q", c.name, zc, err, want)
				}
			}
		}
	})
}

// TestFoldInValidateNamesFirstBadValue: Validate names the first bad value
// of the first array holding one (masses, then probabilities, then
// aliases), whatever the pool width, with the message a serial scan gives.
func TestFoldInValidateNamesFirstBadValue(t *testing.T) {
	const k, v = 8, 300
	table := func() (*FoldIn, *Topics) {
		f := &FoldIn{Alpha: 0.1, K: k, V: v, Mass: make([]float64, v), Prob: make([]float64, k*v), Alias: make([]int32, k*v)}
		for i := range f.Prob {
			f.Prob[i], f.Alias[i] = 0.5, int32(i%k)
		}
		for w := range f.Mass {
			f.Mass[w] = 1
		}
		return f, &Topics{K: k, V: v}
	}
	last := k*v - 1
	cases := []struct {
		name    string
		corrupt func(f *FoldIn)
		want    string
	}{
		{"prob at 0", func(f *FoldIn) { f.Prob[0] = 2 }, "store: foldin prob[0] = 2, need [0, 1]"},
		{"prob at the end", func(f *FoldIn) { f.Prob[last] = math.NaN() }, fmt.Sprintf("store: foldin prob[%d] = NaN, need [0, 1]", last)},
		{"two probs", func(f *FoldIn) { f.Prob[last] = -1; f.Prob[1203] = 1.5 }, "store: foldin prob[1203] = 1.5, need [0, 1]"},
		{"alias mid-table", func(f *FoldIn) { f.Alias[1203] = k }, fmt.Sprintf("store: foldin alias[1203] = %d out of range [0, %d)", k, k)},
		{"two aliases", func(f *FoldIn) { f.Alias[last] = -1; f.Alias[17] = k + 3 }, fmt.Sprintf("store: foldin alias[17] = %d out of range [0, %d)", k+3, k)},
		{"mass at the end", func(f *FoldIn) { f.Mass[v-1] = math.Inf(1) }, fmt.Sprintf("store: foldin mass[%d] = +Inf, need finite and >= 0", v-1)},
		{"mass after a prob", func(f *FoldIn) { f.Prob[0] = 2; f.Mass[250] = -1 }, "store: foldin mass[250] = -1, need finite and >= 0"},
		{"prob after an alias", func(f *FoldIn) { f.Alias[0] = -1; f.Prob[last] = 3 }, fmt.Sprintf("store: foldin prob[%d] = 3, need [0, 1]", last)},
	}
	atEachP(t, func(t *testing.T) {
		f, topics := table()
		if err := f.Validate(topics); err != nil {
			t.Fatalf("valid tables rejected: %v", err)
		}
		for _, c := range cases {
			f, topics := table()
			c.corrupt(f)
			if err := f.Validate(topics); err == nil || err.Error() != c.want {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
			}
		}
	})
}
