package par

import (
	"testing"
	"unsafe"
)

func TestPaddedGuardsValue(t *testing.T) {
	var p Padded[[3]int64]
	if off := unsafe.Offsetof(p.V); off < CacheGuard {
		t.Fatalf("V at offset %d, want >= %d", off, CacheGuard)
	}
	if tail := unsafe.Sizeof(p) - unsafe.Offsetof(p.V) - unsafe.Sizeof(p.V); tail < CacheGuard {
		t.Fatalf("%d bytes after V, want >= %d", tail, CacheGuard)
	}
}

func TestPadSliceShape(t *testing.T) {
	s := PadSlice[int](5)
	if len(s) != 5 || cap(s) != 5 {
		t.Fatalf("len %d cap %d, want 5 5", len(s), cap(s))
	}
	for i, x := range s {
		if x != 0 {
			t.Fatalf("s[%d] = %d, want 0", i, x)
		}
	}
	if grown := append(s, 1); &grown[0] == &s[0] {
		t.Fatal("append wrote into the guard instead of reallocating")
	}
	if s := PadSlice[struct{}](3); len(s) != 3 {
		t.Fatalf("zero-size elements: len %d, want 3", len(s))
	}
}

// TestPadSliceBlocksPrivate allocates small arrays back to back, the
// pattern that packs unpadded ones of one size class together, and checks
// that no CacheGuard-aligned block holds elements of two of them.
func TestPadSliceBlocksPrivate(t *testing.T) {
	owner := map[uintptr]int{}
	mark := func(id int, p unsafe.Pointer, size uintptr) {
		for b := uintptr(p) / CacheGuard; b <= (uintptr(p)+size-1)/CacheGuard; b++ {
			if o, ok := owner[b]; ok && o != id {
				t.Fatalf("block %#x holds arrays %d and %d", b*CacheGuard, o, id)
			}
			owner[b] = id
		}
	}
	for i := 0; i < 64; i++ {
		ints := PadSlice[int](5)
		mark(2*i, unsafe.Pointer(&ints[0]), 5*8)
		bools := PadSlice[bool](3)
		mark(2*i+1, unsafe.Pointer(&bools[0]), 3)
	}
}
