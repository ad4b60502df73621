package core

import (
	"bytes"
	"testing"

	"mpicd/internal/ddt"
	"mpicd/internal/ucp"
)

// Plan-backed derived-datatype transport adapters: the streaming path
// (a binding whose head is the plan kernels) must survive worst-case 1-byte fragmentation
// at every offset, and the region path must expose the same wire stream
// zero-copy. These are the core-layer halves of the ddt plan tests: the
// same kernels, driven through the interfaces the transport actually
// uses mid-transfer.

func ddtFill(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + 5)
	}
	return b
}

// TestDDTStreamOneByteFragments drives the generic pack adapter the way
// a maximally fragmented transport would: reading and writing the wire
// stream one byte at a time at every virtual offset, including offsets
// that resume mid-run. The stream must byte-match the plan's one-shot
// pack and the unpacked destination must round-trip.
func TestDDTStreamOneByteFragments(t *testing.T) {
	typ, err := ddt.Struct([]int{3, 1}, []int64{0, 16}, []*ddt.Type{ddt.Int32, ddt.Float64})
	if err != nil {
		t.Fatal(err)
	}
	d := FromDDT(typ)
	const count = 5
	src := ddtFill(typ.Span(count))
	ref := make([]byte, typ.PackedSize(count))
	if _, err := typ.Pack(src, count, ref); err != nil {
		t.Fatal(err)
	}

	ss, err := d.transport().SendState(src, count)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Size() != int64(len(ref)) {
		t.Fatalf("send state size %d, want %d", ss.Size(), len(ref))
	}
	one := make([]byte, 1)
	for off := int64(0); off < int64(len(ref)); off++ {
		n, err := ss.ReadAt(one, off)
		if n != 1 || (err != nil && off+1 < int64(len(ref))) {
			t.Fatalf("ReadAt(off=%d) = %d, %v", off, n, err)
		}
		if one[0] != ref[off] {
			t.Fatalf("ReadAt(off=%d) = %#x, want %#x", off, one[0], ref[off])
		}
	}
	if err := ss.Finish(); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, typ.Span(count))
	rs, err := d.transport().RecvState(dst, count, ucp.RecvInfo{Total: int64(len(ref))})
	if err != nil {
		t.Fatal(err)
	}
	// Scatter in reverse order: every 1-byte write must land on the right
	// data byte independent of delivery order.
	for off := int64(len(ref)) - 1; off >= 0; off-- {
		if _, err := rs.WriteAt(ref[off:off+1], off); err != nil {
			t.Fatalf("WriteAt(off=%d): %v", off, err)
		}
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(ref))
	if _, err := typ.Pack(dst, count, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("1-byte scattered receive lost data bytes")
	}
}

// TestDDTRegionPath exercises the zero-copy branch: a layout with long
// contiguous runs above the rendezvous thresholds must lower to the
// pooled iovec state on both sides, expose direct windows into the
// application buffer, and still produce the packed wire stream.
func TestDDTRegionPath(t *testing.T) {
	typ, err := ddt.Vector(64, 128, 256, ddt.Float64)
	if err != nil {
		t.Fatal(err)
	}
	const count = 16
	dt := ddtType{FromDDT(typ)}
	if !dt.useRegions(count) {
		t.Fatalf("layout should select the region path (regions=%d total=%d)",
			typ.Plan().RegionCount(count), typ.PackedSize(count))
	}
	src := ddtFill(typ.Span(count))
	ss, err := dt.SendState(src, count)
	if err != nil {
		t.Fatal(err)
	}
	iov, ok := ss.(*binding)
	if !ok {
		t.Fatalf("send state is %T, want *binding", ss)
	}
	if iov.NumRegions() <= 1 {
		t.Fatalf("region path exposed %d regions", iov.NumRegions())
	}
	ref := make([]byte, typ.PackedSize(count))
	if _, err := typ.Pack(src, count, ref); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(ref))
	if n, err := iov.ReadAt(got, 0); int64(n) != int64(len(ref)) || (err != nil && n != len(ref)) {
		t.Fatalf("iov ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("iovec stream differs from packed stream")
	}
	// Direct windows must alias the application buffer (zero-copy), not a
	// staging copy.
	win, ok := iov.Window(0, 128)
	if !ok || len(win) != 128 {
		t.Fatalf("Window(0,128) = %d bytes, ok=%v", len(win), ok)
	}
	if &win[0] != &src[0] {
		t.Fatal("window does not alias the application buffer")
	}
	if err := iov.Finish(); err != nil {
		t.Fatal(err)
	}
	if iov.scratch != nil {
		t.Fatal("Finish did not return the region scratch to the pool")
	}

	// Receive side: scatter the packed stream through the iovec sink and
	// verify the destination holds the data bytes.
	dst := make([]byte, typ.Span(count))
	rs, err := dt.RecvState(dst, count, ucp.RecvInfo{Total: int64(len(ref))})
	if err != nil {
		t.Fatal(err)
	}
	if win, ok := rs.(*binding).Window(0, 128); !ok || &win[0] != &dst[0] {
		t.Fatal("recv state does not expose the destination's regions")
	}
	if _, err := rs.WriteAt(ref, 0); err != nil {
		t.Fatal(err)
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(ref))
	if _, err := typ.Pack(dst, count, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, ref) {
		t.Fatal("region-path receive lost data bytes")
	}
}

// TestDDTPlanSharedAcrossDatatypes: committing the same layout twice —
// including through Dup — must hand both Datatypes the same compiled
// plan from the cache, not recompile it.
func TestDDTPlanSharedAcrossDatatypes(t *testing.T) {
	a, err := ddt.Vector(7, 3, 5, ddt.Int32)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Dup()
	d1, d2 := FromDDT(a), FromDDT(b)
	if d1.plan == nil || d1.plan != d2.plan {
		t.Fatal("Dup'd datatype did not share the compiled plan")
	}
}
