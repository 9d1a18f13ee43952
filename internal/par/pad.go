package par

import "unsafe"

// CacheGuard is the padding, in bytes, that isolates private state: two
// 64-byte cache lines, because x86's adjacent-line prefetcher moves lines
// in 128-byte-aligned pairs (so writes to neighbouring lines still
// contend), and some arm64 cores have 128-byte lines.
const CacheGuard = 128

// Padded holds a value V with CacheGuard bytes of padding on either side.
// Any CacheGuard-aligned block that overlaps V then lies inside the
// Padded value itself, wherever the allocator places it and whatever
// sits next to it, including the neighbouring element of a []Padded[T].
type Padded[T any] struct {
	_ [CacheGuard]byte
	V T
	_ [CacheGuard]byte
}

// PadSlice returns a zeroed slice of n elements whose backing array holds
// at least CacheGuard bytes of unused space on either side, for the arrays
// private state writes (Padded isolates only the slice header). Its
// capacity is n, so an append reallocates instead of writing into the
// guard.
func PadSlice[T any](n int) []T {
	var zero T
	g := 0
	if size := int(unsafe.Sizeof(zero)); size > 0 {
		g = (CacheGuard + size - 1) / size
	}
	return make([]T, n+2*g)[g : g+n : g+n]
}
