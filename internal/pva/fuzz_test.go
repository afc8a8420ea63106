package pva

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame: the frame decoder returns an error or a frame and never
// panics; a decoded frame re-encodes to exactly the bytes it came from,
// and one that passes Validate carries exactly Rows×Cols samples.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(mkFrame(7, KindProjection).Encode())
	f.Add(mkFrame(8, KindEndOfScan).Encode())
	hostile := mkFrame(9, KindFlat).Encode()
	binary.LittleEndian.PutUint32(hostile[24:], 1<<32-1)
	binary.LittleEndian.PutUint32(hostile[28:], 1<<32-1)
	f.Add(hostile)
	f.Add(make([]byte, 34))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := DecodeFrame(raw)
		if err != nil {
			return
		}
		if enc := fr.Encode(); !bytes.Equal(enc, raw) {
			t.Fatalf("re-encoded frame differs: %d bytes from %d", len(enc), len(raw))
		}
		if fr.Validate() != nil || fr.Kind == KindEndOfScan {
			return
		}
		if uint64(len(fr.Data)) != uint64(fr.Rows)*uint64(fr.Cols) || len(fr.Data) != fr.Rows*fr.Cols {
			t.Fatalf("valid %dx%d frame with %d samples", fr.Rows, fr.Cols, len(fr.Data))
		}
	})
}
