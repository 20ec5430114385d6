package data

import (
	"fmt"
	"reflect"

	"helix/internal/store"
)

// Native store layout for the MNIST workflow's image set; see
// internal/workloads/codec.go for the conventions every extension shares.
func init() {
	store.RegisterExt(store.Ext{
		Name:   "data.Images",
		Type:   reflect.TypeOf([]Image(nil)),
		Encode: encodeImages,
		Decode: decodeImages,
	})
}

// encodeImages stores the set column by column:
//
//	n  n × (label, pixel count)  train bitmap(n)  pixels
//
// pixels is one packed float column of every image's pixels in order:
// rendered digits are clamped to [0, 1] and about half their pixels are
// exactly 0, which the packed form stores as a bit.
func encodeImages(w *store.Writer, v any) error {
	images := v.([]Image)
	w.Uvarint(uint64(len(images)))
	if len(images) == 0 {
		return nil
	}
	for i := range images {
		w.Varint(int64(images[i].Label))
		w.Uvarint(uint64(len(images[i].Pixels)))
	}
	w.Bitmap(len(images), func(i int) bool { return images[i].Train })
	w.PackedFloat64Chunks(func(yield func([]float64) bool) {
		for i := range images {
			if !yield(images[i].Pixels) {
				return
			}
		}
	})
	return nil
}

// decodeImages gives every image a cap-limited window of one pixel slab.
func decodeImages(r *store.Reader) (any, error) {
	n, err := r.Count(2)
	if err != nil || n == 0 {
		return []Image(nil), err
	}
	images := make([]Image, n)
	sizes := make([]int, n)
	total := 0
	for i := range images {
		label, err := r.Varint()
		if err != nil {
			return nil, err
		}
		size, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		// A pixel costs a bit at the least.
		if size > 8*uint64(r.Remaining()) || total+int(size) > 8*r.Remaining() {
			return nil, fmt.Errorf("images: %d pixels in %d bytes", uint64(total)+size, r.Remaining())
		}
		images[i].Label, sizes[i] = int(label), int(size)
		total += int(size)
	}
	train, err := r.Bitmap(n)
	if err != nil {
		return nil, err
	}
	pixels, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	if len(pixels) != total {
		return nil, fmt.Errorf("images: %d pixels for images holding %d", len(pixels), total)
	}
	for i, size := range sizes {
		images[i].Train = train.At(i)
		if size > 0 {
			images[i].Pixels, pixels = pixels[:size:size], pixels[size:]
		}
	}
	return images, nil
}
