package core

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/vol"
)

// FuzzDecodePreview: the preview decoder returns an error or a header and
// exactly three well-formed slices and never panics; a decoded preview
// re-encodes and decodes back to the same header and pixels.
func FuzzDecodePreview(f *testing.F) {
	xy, xz, yz := vol.NewImage(3, 2), vol.NewImage(3, 1), vol.NewImage(2, 1)
	for i := range xy.Pix {
		xy.Pix[i] = float64(i) - 2.5
	}
	seed, err := EncodePreview(PreviewHeader{ScanID: "fuzz", NAngles: 48, LatencyMS: 1.5}, xy, xz, yz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	hostile := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(hostile, 1<<32-1)
	f.Add(hostile)
	f.Add([]byte{2, 0, 0, 0, '{', '}'})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, slices, err := DecodePreview(raw)
		if err != nil {
			return
		}
		if len(slices) != 3 {
			t.Fatalf("%d slices, want 3", len(slices))
		}
		for i, im := range slices {
			if im.W < 0 || im.H < 0 || len(im.Pix) != im.W*im.H {
				t.Fatalf("slice %d: %dx%d with %d pixels", i, im.W, im.H, len(im.Pix))
			}
		}
		enc, err := EncodePreview(h, slices[0], slices[1], slices[2])
		if err != nil {
			t.Fatalf("re-encoding a decoded preview: %v", err)
		}
		h2, slices2, err := DecodePreview(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded preview: %v", err)
		}
		if h2 != h {
			t.Fatalf("header %+v came back as %+v", h, h2)
		}
		for i, im := range slices {
			got := slices2[i]
			if got.W != im.W || got.H != im.H {
				t.Fatalf("slice %d: %dx%d came back as %dx%d", i, im.W, im.H, got.W, got.H)
			}
			for j, v := range im.Pix {
				if w := got.Pix[j]; w != v && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("slice %d pixel %d: %v came back as %v", i, j, v, w)
				}
			}
		}
	})
}
