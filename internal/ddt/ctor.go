package ddt

import "fmt"

// Contiguous mirrors MPI_Type_contiguous: count consecutive elements of
// base.
func Contiguous(count int, base *Type) (*Type, error) {
	if count < 0 || base == nil {
		return nil, ctorErr("contiguous: count %d", count)
	}
	runs := make([]Run, 0, count*len(base.runs))
	for i := 0; i < count; i++ {
		off := int64(i) * base.extent
		for _, r := range base.runs {
			runs = append(runs, Run{off + r.Off, r.Len})
		}
	}
	return finalize(fmt.Sprintf("contiguous(%d,%s)", count, base.name), int64(count)*base.extent, runs)
}

// Vector mirrors MPI_Type_vector: count blocks of blocklen elements,
// strided by stride elements of base.
func Vector(count, blocklen, stride int, base *Type) (*Type, error) {
	if base == nil {
		return nil, ctorErr("vector: nil base")
	}
	return Hvector(count, blocklen, int64(stride)*base.extent, base)
}

// Hvector mirrors MPI_Type_create_hvector: like Vector with the stride in
// bytes.
func Hvector(count, blocklen int, stride int64, base *Type) (*Type, error) {
	if count < 0 || blocklen < 0 || base == nil {
		return nil, ctorErr("hvector: count %d blocklen %d", count, blocklen)
	}
	if count > 0 && blocklen > 0 && stride < 0 {
		return nil, ctorErr("hvector: negative stride %d unsupported", stride)
	}
	runs := make([]Run, 0, count*blocklen*len(base.runs))
	for i := 0; i < count; i++ {
		boff := int64(i) * stride
		for j := 0; j < blocklen; j++ {
			off := boff + int64(j)*base.extent
			for _, r := range base.runs {
				runs = append(runs, Run{off + r.Off, r.Len})
			}
		}
	}
	extent := int64(0)
	if count > 0 {
		extent = int64(count-1)*stride + int64(blocklen)*base.extent
	}
	return finalize(fmt.Sprintf("hvector(%d,%d,%d,%s)", count, blocklen, stride, base.name), extent, runs)
}

// Indexed mirrors MPI_Type_indexed: blocks of blocklens[i] elements at
// element displacements displs[i].
func Indexed(blocklens, displs []int, base *Type) (*Type, error) {
	if base == nil || len(blocklens) != len(displs) {
		return nil, ctorErr("indexed: %d blocklens, %d displs", len(blocklens), len(displs))
	}
	hd := make([]int64, len(displs))
	for i, d := range displs {
		hd[i] = int64(d) * base.extent
	}
	return Hindexed(blocklens, hd, base)
}

// Hindexed mirrors MPI_Type_create_hindexed: displacements in bytes.
func Hindexed(blocklens []int, displs []int64, base *Type) (*Type, error) {
	if base == nil || len(blocklens) != len(displs) {
		return nil, ctorErr("hindexed: %d blocklens, %d displs", len(blocklens), len(displs))
	}
	var runs []Run
	for i, bl := range blocklens {
		if bl < 0 || displs[i] < 0 {
			return nil, ctorErr("hindexed: block %d (len %d, displ %d)", i, bl, displs[i])
		}
		for j := 0; j < bl; j++ {
			off := displs[i] + int64(j)*base.extent
			for _, r := range base.runs {
				runs = append(runs, Run{off + r.Off, r.Len})
			}
		}
	}
	return finalize(fmt.Sprintf("hindexed(%d,%s)", len(blocklens), base.name), 0, runs)
}

// IndexedBlock mirrors MPI_Type_create_indexed_block: fixed blocklen,
// element displacements.
func IndexedBlock(blocklen int, displs []int, base *Type) (*Type, error) {
	bl := make([]int, len(displs))
	for i := range bl {
		bl[i] = blocklen
	}
	return Indexed(bl, displs, base)
}

// Struct mirrors MPI_Type_create_struct: per-field block lengths, byte
// displacements and types. No alignment epsilon is added; callers model
// C trailing padding with Resized, as the benchmark kernels do.
func Struct(blocklens []int, displs []int64, types []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(displs) != len(types) {
		return nil, ctorErr("struct: mismatched field lists (%d,%d,%d)", len(blocklens), len(displs), len(types))
	}
	var runs []Run
	name := "struct("
	for i, bl := range blocklens {
		ft := types[i]
		if ft == nil || bl < 0 || displs[i] < 0 {
			return nil, ctorErr("struct: field %d", i)
		}
		if i > 0 {
			name += ","
		}
		name += ft.name
		for j := 0; j < bl; j++ {
			off := displs[i] + int64(j)*ft.extent
			for _, r := range ft.runs {
				runs = append(runs, Run{off + r.Off, r.Len})
			}
		}
	}
	name += ")"
	return finalize(name, 0, runs)
}

// Subarray mirrors MPI_Type_create_subarray with C (row-major) order:
// a subsizes-shaped window at starts inside a sizes-shaped array of base.
func Subarray(sizes, subsizes, starts []int, base *Type) (*Type, error) {
	if base == nil || len(sizes) == 0 || len(sizes) != len(subsizes) || len(sizes) != len(starts) {
		return nil, ctorErr("subarray: dims %d/%d/%d", len(sizes), len(subsizes), len(starts))
	}
	total := int64(1)
	for d := range sizes {
		if sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, ctorErr("subarray: dim %d (size %d, sub %d, start %d)", d, sizes[d], subsizes[d], starts[d])
		}
		total *= int64(sizes[d])
	}
	// Row-major strides in elements.
	nd := len(sizes)
	stride := make([]int64, nd)
	stride[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * int64(sizes[d+1])
	}
	var runs []Run
	var walk func(d int, off int64)
	walk = func(d int, off int64) {
		if d == nd-1 {
			// Innermost dimension is contiguous: one block.
			start := off + (int64(starts[d]))*stride[d]
			for j := 0; j < subsizes[d]; j++ {
				eoff := (start + int64(j)) * base.extent
				for _, r := range base.runs {
					runs = append(runs, Run{eoff + r.Off, r.Len})
				}
			}
			return
		}
		for j := 0; j < subsizes[d]; j++ {
			walk(d+1, off+int64(starts[d]+j)*stride[d])
		}
	}
	walk(0, 0)
	t, err := finalize(fmt.Sprintf("subarray(%dd,%s)", nd, base.name), total*base.extent, runs)
	if err != nil {
		return nil, err
	}
	// A subarray's extent is the full array, even though its data windows
	// only part of it.
	t.extent = total * base.extent
	if t.extent < t.ub {
		t.extent = t.ub
	}
	t.contig = t.contig && t.size == t.extent
	return t, nil
}

// Resized mirrors MPI_Type_create_resized with a zero lower bound: it
// overrides the extent (e.g. to model C trailing padding).
func Resized(base *Type, extent int64) (*Type, error) {
	if base == nil || extent < base.ub {
		return nil, ctorErr("resized: extent %d below upper bound", extent)
	}
	t := &Type{
		name:   fmt.Sprintf("resized(%s,%d)", base.name, extent),
		size:   base.size,
		extent: extent,
		ub:     base.ub,
		runs:   base.runs,
	}
	t.contig = len(t.runs) == 1 && t.runs[0].Off == 0 && t.size == t.extent
	return t, nil
}
