package ddt

import (
	"fmt"
	"testing"
)

// Benchmarks documenting the engine characteristics the evaluation relies
// on: gapped typemaps degenerate to small per-run copies while contiguous
// types pack as one move.

func benchPack(b *testing.B, t *Type, count int64) {
	src := fill(t.Span(count))
	dst := make([]byte, t.PackedSize(count))
	b.SetBytes(t.PackedSize(count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Pack(src, count, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackContiguous(b *testing.B) {
	t, _ := Contiguous(1024, Float64)
	benchPack(b, t, 128)
}

func BenchmarkPackGappedStruct(b *testing.B) {
	t, _ := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	benchPack(b, t, 32768) // same ~640 KiB as the contiguous case
}

func BenchmarkPackStridedVector(b *testing.B) {
	t, _ := Vector(4096, 2, 4, Float64)
	benchPack(b, t, 10)
}

func BenchmarkPackIndexedGather(b *testing.B) {
	displs := make([]int, 4096)
	for i := range displs {
		displs[i] = i * 2
	}
	t, _ := IndexedBlock(1, displs, Float64)
	benchPack(b, t, 10)
}

func benchUnpack(b *testing.B, t *Type, count int64) {
	packed := make([]byte, t.PackedSize(count))
	if _, err := t.Pack(fill(t.Span(count)), count, packed); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, t.Span(count))
	b.SetBytes(t.PackedSize(count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Unpack(dst, count, packed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackGappedStruct(b *testing.B) {
	t, _ := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	benchUnpack(b, t, 32768)
}

func BenchmarkPackAtFragmented(b *testing.B) {
	// Streaming pack in transport-sized fragments (the rendezvous path).
	t, _ := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	const count = 32768
	src := fill(t.Span(count))
	frag := make([]byte, 16*1024)
	total := t.PackedSize(count)
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := int64(0); off < total; {
			n, err := t.PackAt(src, count, off, frag)
			if n == 0 {
				b.Fatal(err)
			}
			off += int64(n)
		}
	}
}

func BenchmarkUnpackAtFragmented(b *testing.B) {
	// The receiving half of the same path: 16 KiB fragments, most of them
	// starting and ending mid-element.
	t, _ := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	const count = 32768
	total := t.PackedSize(count)
	packed := make([]byte, total)
	if _, err := t.Pack(fill(t.Span(count)), count, packed); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, t.Span(count))
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := int64(0); off < total; off += 16 * 1024 {
			if err := t.UnpackAt(dst, count, off, packed[off:min(off+16*1024, total)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanShapes is pack and unpack GB/s for the uniform shapes the
// DDTBench kernels compile to, one element each as the kernels send them:
// 8-byte blocks strided (NAS_MG_x: a vector of single float64s), 40-byte
// blocks strided (NAS_LU_y: five float64s a row) and 16-byte blocks in a
// run list (WRF_x_vec: a struct of two-wide halo slabs, strided inside
// each field and irregular between them).
func BenchmarkPlanShapes(b *testing.B) {
	mk := func(t *Type, err error) *Type {
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	slab := mk(Hvector(2048, 2, 34*8, Float64))
	for _, c := range []struct {
		name string
		typ  *Type
	}{
		{"strided-8B", mk(Vector(32768, 1, 34, Float64))},
		{"strided-40B", mk(Hvector(8192, 5, 34*8*5, Float64))},
		{"runlist-16B", mk(Struct([]int{1, 1, 1}, []int64{0, slab.Extent() + 64, 2*slab.Extent() + 200}, []*Type{slab, slab, slab}))},
	} {
		kind := c.typ.Plan().Kind().String()
		b.Run(c.name+"/"+kind+"/pack", func(b *testing.B) { benchPack(b, c.typ, 1) })
		b.Run(c.name+"/"+kind+"/unpack", func(b *testing.B) { benchUnpack(b, c.typ, 1) })
	}
}

func BenchmarkTypeConstruction(b *testing.B) {
	// Datatype (re)creation cost: the paper notes derived types would
	// need recreation per buffer for dynamic data.
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("indexed-%d", n), func(b *testing.B) {
			displs := make([]int, n)
			for i := range displs {
				displs[i] = i * 3
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := IndexedBlock(2, displs, Float64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
