package tiled_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/tiled"
	"repro/internal/vol"
)

// sliceHeader builds a slice payload: the w×h header then n zero bytes.
func sliceHeader(w, h uint32, n int) []byte {
	raw := make([]byte, 8+n)
	binary.LittleEndian.PutUint32(raw[0:], w)
	binary.LittleEndian.PutUint32(raw[4:], h)
	return raw
}

// previewOf wraps one slice payload as all three slices of a preview
// message, the form msgq delivers to core.DecodePreview.
func previewOf(slice []byte) []byte {
	hdr := []byte(`{"scan_id":"fuzz"}`)
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	for i := 0; i < 3; i++ {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(slice)))
		out = append(out, slice...)
	}
	return out
}

// TestDecodeSliceHostileDims: headers whose dimensions disagree with the
// payload, including products that wrap 32- or 64-bit arithmetic, are
// rejected by DecodeSlice and by the preview decoder above it.
func TestDecodeSliceHostileDims(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"2^31 x 2^31, empty payload", sliceHeader(1<<31, 1<<31, 0)},
		{"2^32-1 x 2^32-1, empty payload", sliceHeader(1<<32-1, 1<<32-1, 0)},
		{"2^30 x 4, empty payload", sliceHeader(1<<30, 4, 0)},
		{"2^31 x 2, one pixel", sliceHeader(1<<31, 2, 4)},
		{"width over the bound, zero height", sliceHeader(1<<32-1, 0, 0)},
		{"payload not whole pixels", sliceHeader(1, 1, 5)},
		{"2x2, three pixels", sliceHeader(2, 2, 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if im, err := tiled.DecodeSlice(tc.raw); err == nil {
				t.Fatalf("DecodeSlice accepted it as %dx%d", im.W, im.H)
			}
			if _, _, err := core.DecodePreview(previewOf(tc.raw)); err == nil {
				t.Fatal("DecodePreview accepted it")
			}
		})
	}
}

// FuzzDecodeSlice: neither the slice decoder nor the preview decoder
// built on it panics, and a slice either decodes to exactly the pixels
// its payload carries or fails in both.
func FuzzDecodeSlice(f *testing.F) {
	im := vol.NewImage(3, 2)
	for i := range im.Pix {
		im.Pix[i] = float64(i) - 1.5
	}
	f.Add(tiled.EncodeSlice(im))
	f.Add(sliceHeader(0, 0, 0))
	f.Add(sliceHeader(1<<31, 1<<31, 0))
	f.Add(sliceHeader(1<<16, 1<<16, 4))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := tiled.DecodeSlice(raw)
		_, slices, perr := core.DecodePreview(previewOf(raw))
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodeSlice err %v but DecodePreview err %v", err, perr)
		}
		core.DecodePreview(raw)
		if err != nil {
			return
		}
		if len(got.Pix) != got.W*got.H || 8+4*len(got.Pix) != len(raw) {
			t.Fatalf("%dx%d image with %d pixels from %d bytes", got.W, got.H, len(got.Pix), len(raw))
		}
		if len(slices) != 3 || slices[0].W != got.W || slices[0].H != got.H {
			t.Fatalf("preview slices disagree with DecodeSlice's %dx%d", got.W, got.H)
		}
	})
}
