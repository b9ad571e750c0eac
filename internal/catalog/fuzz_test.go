package catalog

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode. Decode must never panic, and
// whatever it accepts must re-encode to a fixed point: encoding the
// decoded sketch, decoding that and encoding again yields the same bytes.
// Each input is tried twice: as given, and with the header's payload
// length and checksum re-stamped to match, so mutations reach the
// structural decoders instead of stopping at the checksum gate.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatalf("read golden fixture: %v", err)
	}
	f.Add(golden)
	for _, n := range []int{0, headerSize - 1, headerSize, headerSize + prologueSize, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeFixedPoint(t, b)
		if len(b) >= headerSize {
			c := bytes.Clone(b)
			binary.LittleEndian.PutUint64(c[12:20], uint64(len(c)-headerSize))
			rechecksum(c)
			checkDecodeFixedPoint(t, c)
		}
	})
}

func checkDecodeFixedPoint(t *testing.T, b []byte) {
	t.Helper()
	sk, _, err := Decode(bytes.NewReader(b))
	if err != nil {
		if sk != nil {
			t.Fatalf("Decode returned a sketch alongside error %v", err)
		}
		return
	}
	enc, err := EncodeBytes(sk)
	if err != nil {
		t.Fatalf("re-encoding an accepted input: %v", err)
	}
	again, _, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoding the re-encoded sketch: %v", err)
	}
	enc2, err := EncodeBytes(again)
	if err != nil {
		t.Fatalf("re-encoding the second decode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding is not a fixed point (%d vs %d bytes)", len(enc), len(enc2))
	}
}
