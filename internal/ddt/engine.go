package ddt

// The public pack/unpack entry points: every one delegates to the type's
// compiled plan (plan.go). The typemap interpreter they once ran lives in
// interp_test.go, as the differential-testing oracle and the baseline of
// BenchmarkAblationDDTPlan.

// PackAt packs up to len(dst) bytes of the packed representation of
// (src, count) starting at virtual packed offset off. It returns the
// number of bytes produced (short only at the end of the stream, with
// io.EOF). This is the streaming entry; Pack is the one-shot convenience.
func (t *Type) PackAt(src []byte, count int64, off int64, dst []byte) (int, error) {
	return t.Plan().PackAt(src, count, off, dst)
}

// UnpackAt writes the packed bytes in src at virtual packed offset off back
// into the memory layout of (dst, count).
func (t *Type) UnpackAt(dst []byte, count int64, off int64, src []byte) error {
	return t.Plan().UnpackAt(dst, count, off, src)
}

// Pack packs count elements of src into dst and returns the packed size.
// dst must have room for PackedSize(count) bytes.
func (t *Type) Pack(src []byte, count int64, dst []byte) (int64, error) {
	return t.Plan().Pack(src, count, dst)
}

// Unpack scatters the packed bytes in src into count elements at dst.
func (t *Type) Unpack(dst []byte, count int64, src []byte) error {
	return t.Plan().Unpack(dst, count, src)
}

// Regions returns the memory regions of (buf, count) as byte slices in
// pack order: the scatter/gather view of the typemap. Runs that are
// adjacent in memory — within an element and across element boundaries —
// are coalesced. Callers on hot paths should use Plan().AppendRegions
// with reusable scratch instead.
func (t *Type) Regions(buf []byte, count int64) ([][]byte, error) {
	p := t.Plan()
	out := make([][]byte, 0, p.RegionCount(count))
	return p.AppendRegions(out, buf, count)
}
