package serial

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzLoads hardens the deserializer against hostile streams: whatever
// the input, Loads must return an error or a value — never panic or
// over-read. (Serialized data crosses trust boundaries in MPI programs.)
func FuzzLoads(f *testing.F) {
	seedValues := []any{
		nil, true, int64(-1), 3.14, "string", Buffer{1, 2, 3},
		[]any{int64(1), "two"},
		map[string]any{"k": Buffer("v")},
		NewFloat64Array(16, 1),
	}
	for _, v := range seedValues {
		data, err := Dumps(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		header, _, err := DumpsOOB(v, 8)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(header)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine.
		v, err := Loads(data)
		if err == nil {
			// A decoded value must re-encode (the model is closed).
			if _, err := Dumps(v); err != nil {
				t.Fatalf("decoded value %#v does not re-encode: %v", v, err)
			}
		}
		// The length scanner must agree with the decoder on validity for
		// streams without buffer references.
		_, _ = BufferLens(data)
		// OOB decoding with no buffers must reject streams that
		// reference them rather than panic.
		_, _ = LoadsOOB(data, nil)
	})
}

// FuzzObjectHeader feeds arbitrary headers, in random fragment splits,
// to the custom type's receive — Unpack, then RegionCount and Regions, as
// the binding calls them: the outcome is an error, or regions of exactly
// the lengths the header names, never a panic.
func FuzzObjectHeader(f *testing.F) {
	for _, v := range []any{
		"no buffers", NewFloat64Array(1024, 1), complexObject(3, 8192),
		[]any{Buffer(make([]byte, 5000)), int64(2), Buffer(make([]byte, 4096))},
	} {
		header, _, err := DumpsOOB(v, 4096)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(header, uint64(len(header)))
	}
	f.Add(bufRefHeader(1<<63), uint64(1))
	f.Add(bufRefHeader(maxBufferBytes, 1), uint64(2))
	f.Add(bufRefHeader(3, 0, 1<<20), uint64(3))
	f.Add([]byte{tagBufRef, 0, 0}, uint64(4))
	f.Fuzz(func(t *testing.T, header []byte, seed uint64) {
		const limit = 1 << 20 // a test's allocations stay small
		lens, lensErr := BufferLens(header)
		named := int64(0)
		for _, n := range lens {
			named += n
		}
		if named > limit {
			t.Skip("the header names more than a test allocates")
		}
		var h objectHandler
		m := &Msg{}
		rng := rand.New(rand.NewPCG(seed, 0))
		for off := 0; off < len(header); {
			k := 1 + rng.IntN(len(header)-off)
			if err := h.Unpack(m, m, 1, int64(off), header[off:off+k]); err != nil {
				t.Fatal(err)
			}
			off += k
		}
		if !bytes.Equal(m.header, header) {
			t.Fatal("the staged header differs from the one sent")
		}
		nreg, err := h.RegionCount(m, m, 1)
		if (err != nil) != (lensErr != nil) {
			t.Fatalf("RegionCount err %v, BufferLens err %v", err, lensErr)
		}
		if err != nil {
			return
		}
		regions := make([][]byte, nreg)
		if err := h.Regions(m, m, 1, regions); err != nil {
			t.Fatal(err)
		}
		if len(regions) != len(lens) {
			t.Fatalf("%d regions for %d buffers named", len(regions), len(lens))
		}
		for i, r := range regions {
			if int64(len(r)) != lens[i] {
				t.Fatalf("region %d holds %d bytes, the header names %d", i, len(r), lens[i])
			}
		}
	})
}
