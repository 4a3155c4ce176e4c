package boolcol

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestBoolIsOneByte guards the premise of Bytes: a bool occupies exactly
// one byte, so a []bool of n slots is n bytes of 0 or 1.
func TestBoolIsOneByte(t *testing.T) {
	if got := unsafe.Sizeof(false); got != 1 {
		t.Fatalf("unsafe.Sizeof(false) = %d, want 1", got)
	}
	col := []bool{true, false, true, true, false}
	b := Bytes(col)
	if len(b) != len(col) {
		t.Fatalf("view has %d bytes for %d slots", len(b), len(col))
	}
	for i, v := range col {
		want := byte(0)
		if v {
			want = 1
		}
		if b[i] != want {
			t.Fatalf("slot %d reads byte %d, want %d", i, b[i], want)
		}
	}
	b[1] = 1
	if !col[1] {
		t.Fatal("write through the view did not reach the column")
	}
	if len(Bytes(nil)) != 0 {
		t.Fatal("nil column has a non-empty view")
	}
}

// TestPack8Exhaustive checks Pack8 and Unpack8 against the one-bit-per-
// iteration definition for all 256 bitset bytes.
func TestPack8Exhaustive(t *testing.T) {
	for v := 0; v < 256; v++ {
		var col [8]bool
		for i := range col {
			col[i] = v&(1<<i) != 0
		}
		word := binary.LittleEndian.Uint64(Bytes(col[:]))
		if got := Pack8(word); got != byte(v) {
			t.Fatalf("Pack8(%#x) = %#x, want %#x", word, got, v)
		}
		if got := Unpack8(byte(v)); got != word {
			t.Fatalf("Unpack8(%#x) = %#x, want %#x", v, got, word)
		}
	}
}

// TestOr checks the word-wise OR against the per-slot definition over
// lengths that exercise the 8-slot body, the scalar tail, and both.
func TestOr(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 23, 1440} {
		dst, src := make([]bool, n), make([]bool, n+3)
		for i := range dst {
			dst[i] = i%3 == 0
		}
		for i := range src {
			src[i] = i%5 == 1
		}
		want := make([]bool, n)
		for i := range want {
			want[i] = dst[i] || src[i]
		}
		Or(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d slot %d: got %v, want %v", n, i, dst[i], want[i])
			}
		}
		for i, v := range src {
			if v != (i%5 == 1) {
				t.Fatalf("n=%d: Or modified src at %d", n, i)
			}
		}
	}
}
