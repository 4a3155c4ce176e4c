package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// codecBlocks materializes every day-block of a generated world — realistic
// column content (weather floats, zone/activity IDs, appliance bitsets) for
// the round-trip cases.
func codecBlocks(t *testing.T, house string, days int) []*DayBlock {
	t.Helper()
	h := home.MustHouse(house)
	gen, err := aras.NewGenerator(h, aras.GeneratorConfig{Days: days, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	src := NewGeneratorSource(house, gen)
	var blocks []*DayBlock
	for {
		blk := new(DayBlock)
		if err := src.NextBlock(blk); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	if len(blocks) != days {
		t.Fatalf("generated %d blocks, want %d", len(blocks), days)
	}
	return blocks
}

// TestBlockFrameRoundTrip pins encode → decode as the identity on realistic
// blocks from both paper houses, including decoder storage reuse across
// differently shaped homes.
func TestBlockFrameRoundTrip(t *testing.T) {
	var dst DayBlock // reused across every decode, shapes A and B interleaved
	var buf []byte
	for _, house := range []string{"A", "B"} {
		for _, blk := range codecBlocks(t, house, 3) {
			var err error
			buf, err = AppendBlockFrame(buf[:0], blk, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !IsBlockFrame(buf) {
				t.Fatal("encoded frame not classified as block frame")
			}
			epoch, err := DecodeBlockFrame(&dst, buf)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 7 {
				t.Fatalf("epoch %d, want 7", epoch)
			}
			if !reflect.DeepEqual(&dst, blk) {
				t.Fatalf("house %s day %d: decoded block differs from original", house, blk.Day)
			}
		}
	}
}

// TestBlockFrameCorruption walks every single-byte corruption and every
// truncation length of a valid frame through the decoder: each must error
// (never panic, never decode silently wrong data). Flipping any payload or
// header byte breaks magic, length, or CRC; the frame has no slack bytes.
func TestBlockFrameCorruption(t *testing.T) {
	blk := codecBlocks(t, "A", 1)[0]
	frame, err := AppendBlockFrame(nil, blk, 3)
	if err != nil {
		t.Fatal(err)
	}
	var dst DayBlock
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := DecodeBlockFrame(&dst, mut); !errors.Is(err, ErrBadBlockFrame) {
			t.Fatalf("flip at byte %d: got %v, want ErrBadBlockFrame", i, err)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeBlockFrame(&dst, frame[:n]); !errors.Is(err, ErrBadBlockFrame) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrBadBlockFrame", n, err)
		}
	}
	// Trailing garbage after a valid frame must also be rejected.
	if _, err := DecodeBlockFrame(&dst, append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrBadBlockFrame) {
		t.Fatalf("trailing byte: got %v, want ErrBadBlockFrame", err)
	}
}

// TestBlockFrameEncodeRejects pins the encoder's own validation: malformed
// shapes and out-of-range fields must refuse to produce a frame.
func TestBlockFrameEncodeRejects(t *testing.T) {
	blk := codecBlocks(t, "A", 1)[0]
	if _, err := AppendBlockFrame(nil, blk, -1); err == nil {
		t.Error("negative epoch accepted")
	}
	blk.Day = -1
	if _, err := AppendBlockFrame(nil, blk, 0); err == nil {
		t.Error("negative day accepted")
	}
	blk.Day = 0
	blk.TrueZone[0][5] = 1 << 20
	if _, err := AppendBlockFrame(nil, blk, 0); err == nil {
		t.Error("zone ID beyond int16 accepted")
	}
	blk.TrueZone[0][5] = 0
	short := &DayBlock{Home: "A"}
	if _, err := AppendBlockFrame(nil, short, 0); err == nil {
		t.Error("short-column block accepted")
	}
}

// FuzzDecodeBlockFrame hammers the block decoder with arbitrary bytes: every
// input either decodes to a block that re-encodes byte-identically or errors
// cleanly — no panics, no lossy acceptance.
func FuzzDecodeBlockFrame(f *testing.F) {
	h := home.MustHouse("A")
	gen, err := aras.NewGenerator(h, aras.GeneratorConfig{Days: 1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	src := NewGeneratorSource("A", gen)
	var blk DayBlock
	if err := src.NextBlock(&blk); err != nil {
		f.Fatal(err)
	}
	valid, err := AppendBlockFrame(nil, &blk, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:16])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("SHBLOK1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var dst DayBlock
		epoch, err := DecodeBlockFrame(&dst, data)
		if err != nil {
			if !errors.Is(err, ErrBadBlockFrame) {
				t.Fatalf("decode error outside ErrBadBlockFrame: %v", err)
			}
			return
		}
		re, err := AppendBlockFrame(nil, &dst, epoch)
		if err != nil {
			t.Fatalf("re-encode of accepted block failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted frame does not re-encode identically (%d vs %d bytes)", len(re), len(data))
		}
	})
}

// blockFrameDigests pins the wire bytes of the codecBlocks frames (epoch 7)
// per house to a SHA-256 over the concatenated frames. The round-trip test
// only proves the decoder inverts the encoder; this pin proves a rewritten
// encoder still emits the committed format-1 bytes. Each house's blocks are
// encoded twice: as generated (reported columns mirror the truth) and with
// a patterned RepAppliance, so every bit position of the bitsets carries
// both values; each frame must also decode back to its block.
// Re-baseline only with a new frame format version.
var blockFrameDigests = map[string]string{
	"A": "09c3af7cc7f9b557312c7e00214a5d81dd5b390534592d064a28e24fb775cce9",
	"B": "1431302d005a914ae52e8b4d0f809f0537f96a4c9b58d3214e2f0550c4106ff9",
}

func TestBlockFrameDigests(t *testing.T) {
	for house, want := range blockFrameDigests {
		h := sha256.New()
		var buf []byte
		var dst DayBlock
		for _, blk := range codecBlocks(t, house, 3) {
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					for a, col := range blk.RepAppliance {
						for ts := range col {
							col[ts] = (ts*7+a*3+blk.Day)%5 < 2
						}
					}
				}
				var err error
				if buf, err = AppendBlockFrame(buf[:0], blk, 7); err != nil {
					t.Fatal(err)
				}
				h.Write(buf)
				if _, err := DecodeBlockFrame(&dst, buf); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&dst, blk) {
					t.Fatalf("house %s day %d pass %d: decoded block differs", house, blk.Day, pass)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("house %s: block frame digest %s, want %s", house, got, want)
		}
	}
}

// TestBitsetMatchesBitLoop holds the eight-slot bitset packing to the
// one-bit-per-iteration definition (slot t at bit t&7 of byte t>>3) on
// column lengths with and without a partial last byte; frames always carry
// whole bytes of 1440 slots, so the tail is only reached here.
func TestBitsetMatchesBitLoop(t *testing.T) {
	for n := 0; n <= 40; n++ {
		col := make([]bool, n)
		for i := range col {
			col[i] = (i*7+n)%3 == 0
		}
		want := make([]byte, (n+7)/8)
		for i, on := range col {
			if on {
				want[i>>3] |= 1 << (i & 7)
			}
		}
		got := appendBitset([]byte{0xAA}, col)
		if string(got[1:]) != string(want) || got[0] != 0xAA {
			t.Fatalf("n=%d: packed % x, want % x", n, got[1:], want)
		}
		back := make([]bool, n)
		r := reader{buf: got[1:]}
		r.bitset(back)
		if r.bad || !reflect.DeepEqual(back, col) {
			t.Fatalf("n=%d: unpacked %v, want %v", n, back, col)
		}
	}
}
