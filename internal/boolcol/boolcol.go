// Package boolcol lets hot loops handle the simulator's []bool status
// columns eight slots at a time. A Go bool is one byte holding 0 or 1, so
// a column viewed as bytes loads as little-endian 64-bit words whose bytes
// are 0 or 1: XOR finds changes between neighbouring slots, OR merges
// columns, and Pack8/Unpack8 convert between such a word and the one-bit-
// per-slot bitset byte (slot i of the group is bit i).
package boolcol

import (
	"encoding/binary"
	"unsafe"
)

// Bytes returns the bytes backing b: the same memory, one byte per slot,
// each 0 (false) or 1 (true). Writes through the view must store only 0 or
// 1, because any other byte is not a valid bool.
func Bytes(b []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// Pack8 packs a word of eight 0/1 bytes into one bitset byte: byte i of x
// (little-endian) becomes bit i. The multiply moves each byte's bit into
// the top byte without carries; bytes other than 0 or 1 give garbage.
func Pack8(x uint64) byte {
	return byte((x * 0x0102040810204080) >> 56)
}

// Unpack8 is Pack8's inverse: bit i of b becomes byte i (0 or 1) of the
// little-endian result. The multiply copies b into every byte, the mask
// keeps bit i in byte i, and the add carries each kept bit into bit 7.
func Unpack8(b byte) uint64 {
	x := (uint64(b) * 0x0101010101010101) & 0x8040201008040201
	return ((x + 0x00406070787c7e7f) >> 7) & 0x0101010101010101
}

// Or sets dst[t] = dst[t] || src[t] for every slot of dst, eight slots per
// word; src must be at least as long as dst. OR of 0/1 bytes stays 0/1.
func Or(dst, src []bool) {
	d := Bytes(dst)
	s := Bytes(src)[:len(d)]
	for len(d) >= 8 {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)|binary.LittleEndian.Uint64(s))
		d, s = d[8:], s[8:]
	}
	for i := range d {
		d[i] |= s[i]
	}
}
