package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unsafe"
)

// nativeZeroCopy reports whether []int / []float64 views can alias the
// little-endian encoded bytes directly: the platform must be little-endian
// and int must be 64 bits wide (the i64 wire format is then exactly int's
// in-memory layout). On other platforms the zero-copy decoder silently
// degrades to the copying path.
var nativeZeroCopy = strconv.IntSize == 64 && func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 returns the zero padding that rounds n up to a multiple of 8.
func pad8(n int) int { return (8 - n%8) % 8 }

var zeros [8]byte

// enc is an append-only little-endian encoder. All writes are infallible;
// the resulting bytes are a pure function of the written values.
type enc struct {
	buf []byte
}

// grow makes room for n more bytes, so a caller that knows its payload's
// size appends it without reallocating.
func (e *enc) grow(n int) { e.buf = slices.Grow(e.buf, n) }

func (e *enc) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *enc) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// i64 stores a signed integer as its two's-complement bit pattern.
func (e *enc) i64(v int64) { e.u64(uint64(v)) }

// f64 stores a float by its IEEE-754 bit pattern, preserving it exactly
// (including negative zero and NaN payloads).
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// str writes a length-prefixed string padded with zero bytes to the next
// 8-byte boundary. Keeping every payload primitive a multiple of 8 bytes
// wide means an 8-aligned section payload stays 8-aligned at every ints /
// floats array inside it — the invariant the zero-copy decoder relies on.
// The header's section names use rawStr instead (the header is parsed
// field-by-field and never zero-copied).
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, zeros[:pad8(4+len(s))]...)
}

// rawStr is the unpadded v1-style string encoding, used only in the file
// header.
func (e *enc) rawStr(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// ints, floats and int32s write length-prefixed arrays. Where the
// platform's in-memory layout is the wire format (nativeZeroCopy, the
// same condition that lets the decoder alias it), the elements are
// copied as one block of bytes; the output is the same either way.
func (e *enc) ints(v []int) {
	e.u64(uint64(len(v)))
	if nativeZeroCopy {
		e.buf = append(e.buf, rawBytes(v)...)
		return
	}
	for _, x := range v {
		e.i64(int64(x))
	}
}

func (e *enc) floats(v []float64) {
	e.u64(uint64(len(v)))
	if nativeZeroCopy {
		e.buf = append(e.buf, rawBytes(v)...)
		return
	}
	for _, x := range v {
		e.f64(x)
	}
}

// int32s writes 4-byte values, zero-padded to the next 8-byte boundary
// so the primitive stays a multiple of 8 wide.
func (e *enc) int32s(v []int32) {
	e.u64(uint64(len(v)))
	if nativeZeroCopy {
		e.buf = append(e.buf, rawBytes(v)...)
	} else {
		for _, x := range v {
			e.u32(uint32(x))
		}
	}
	e.buf = append(e.buf, zeros[:pad8(4*len(v))]...)
}

// rawBytes views an array's memory as bytes.
func rawBytes[T int | int32 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(*new(T))))
}

// dec is the bounds-checked reader for enc's output. The first out-of-range
// read latches err and turns every later read into a zero-value no-op, so
// decoders can run straight-line and check err once at the end.
//
// With zc set, ints and floats return views that alias buf instead of heap
// copies whenever the platform allows it (nativeZeroCopy) and the array
// happens to sit 8-aligned in memory; otherwise they fall back to copying.
// Callers that set zc own the aliasing consequences: the decoded snapshot
// must be treated as strictly read-only, and buf must outlive it.
type dec struct {
	buf []byte
	off int
	err error
	zc  bool
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated %s at offset %d", what, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64(what string) int64 { return int64(d.u64(what)) }

func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *dec) str(what string) string {
	n := d.u32(what)
	b := d.take(int(n), what)
	d.take(pad8(4+int(n)), what) // skip alignment padding
	if d.zc && len(b) > 0 {
		// Strings are immutable and need no alignment, so a zero-copy view
		// over the (read-only) buffer is always safe while it lives.
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// rawStr reads the unpadded header string encoding.
func (d *dec) rawStr(what string) string {
	n := d.u32(what)
	b := d.take(int(n), what)
	return string(b)
}

// length reads a collection length and sanity-bounds it against the bytes
// that remain, so a corrupt length cannot drive a huge allocation. minSize
// is the smallest possible encoded size of one element.
func (d *dec) length(minSize int, what string) int {
	n := d.u64(what)
	if d.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.buf)-d.off)/uint64(minSize) {
		d.fail(what + " length")
		return 0
	}
	return int(n)
}

func (d *dec) ints(what string) []int {
	n := d.length(8, what)
	if n == 0 {
		return nil
	}
	if b := d.zcTake(n, 8, what); b != nil {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.i64(what))
	}
	return out
}

func (d *dec) floats(what string) []float64 {
	n := d.length(8, what)
	if n == 0 {
		return nil
	}
	if b := d.zcTake(n, 8, what); b != nil {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64(what)
	}
	return out
}

func (d *dec) int32s(what string) []int32 {
	n := d.length(4, what)
	if n == 0 {
		return nil
	}
	var out []int32
	if b := d.zcTake(n, 4, what); b != nil {
		out = unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	} else {
		out = make([]int32, n)
		for i := range out {
			out[i] = int32(d.u32(what))
		}
	}
	d.take(pad8(4*n), what) // skip alignment padding
	return out
}

// zcTake consumes n elements of the given byte size and returns their
// backing bytes when a zero-copy view is possible: zc decoding enabled,
// platform compatible, and the data aligned to size in memory. A nil
// return means "use the copying path" (which also covers the latched-error
// case via take).
func (d *dec) zcTake(n, size int, what string) []byte {
	if !d.zc || !nativeZeroCopy || d.err != nil {
		return nil
	}
	if d.off >= len(d.buf) || uintptr(unsafe.Pointer(&d.buf[d.off]))%uintptr(size) != 0 {
		return nil
	}
	return d.take(n*size, what)
}
