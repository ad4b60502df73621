package ddt

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzUnmarshal hardens the datatype unmarshaller: type descriptions
// arrive over the wire (Comm.RecvType), so arbitrary bytes must produce
// an error or a well-formed type — never a panic or a type that violates
// its own invariants.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(randomType(rng, rng.Intn(3)+1).Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte("DDT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Invariants of a well-formed type.
		if typ.Size() < 0 || typ.Extent() < 0 || typ.Extent() < typ.Size() && typ.Contig() {
			t.Fatalf("invalid reconstructed type: size %d extent %d", typ.Size(), typ.Extent())
		}
		var sum int64
		for _, r := range typ.Runs() {
			if r.Len <= 0 || r.Off < 0 || r.Off+r.Len > typ.Extent() {
				t.Fatalf("invalid run %+v (extent %d)", r, typ.Extent())
			}
			sum += r.Len
		}
		if sum != typ.Size() {
			t.Fatalf("runs sum %d != size %d", sum, typ.Size())
		}
		// A reconstructed type must round-trip its own marshalling.
		again, err := Unmarshal(typ.Marshal())
		if err != nil || !Equal(typ, again) {
			t.Fatalf("re-marshal roundtrip failed: %v", err)
		}
		// And pack/unpack within its own span without panicking (bounded:
		// a valid description may still declare an enormous extent).
		count := int64(2)
		if span := typ.Span(count); span > 0 && span <= 1<<20 {
			src := fill(span)
			dst := make([]byte, typ.PackedSize(count))
			if _, err := typ.Pack(src, count, dst); err != nil {
				t.Fatalf("pack of valid type failed: %v", err)
			}
		}
	})
}

// Canary scaffolding: every buffer a kernel writes is cut from the middle
// of a larger array whose margins hold redByte, and prefilled with a
// position-dependent pattern, so a byte written outside a run, outside
// [0, n) of a packed destination, or outside the buffer altogether is
// observed rather than hoped against. Under -race, checkptr additionally
// rejects a pointer that straddles the allocation.
const (
	redZone = 64
	redByte = 0xC7
)

// guarded returns an n-byte window (capacity n) in the middle of a larger
// array, margins set to redByte and the window to prefill's pattern.
func guarded(n int64) (whole, win []byte) {
	whole = make([]byte, n+2*redZone)
	for i := range whole {
		whole[i] = redByte
	}
	win = whole[redZone : redZone+n : redZone+n]
	prefill(win)
	return whole, win
}

func prefillByte(i int) byte { return byte(i*13 + 0x5C) }

func prefill(b []byte) {
	for i := range b {
		b[i] = prefillByte(i)
	}
}

// checkZones fails if either margin of a guarded array was written, or any
// window byte at or past keep no longer holds the prefill pattern.
func checkZones(t *testing.T, what string, whole []byte, keep int) {
	t.Helper()
	n := len(whole) - 2*redZone
	for i := 0; i < redZone; i++ {
		if whole[i] != redByte || whole[redZone+n+i] != redByte {
			t.Fatalf("%s: red zone written (margin byte %d)", what, i)
		}
	}
	for i := keep; i < n; i++ {
		if whole[redZone+i] != prefillByte(i) {
			t.Fatalf("%s: byte %d written, only [0,%d) should be", what, i, keep)
		}
	}
}

// diffCounts are the element counts the differential runs at: none, one,
// a few, both sides of the run-major tile edge, and several tiles plus a
// remainder.
var diffCounts = []int64{0, 1, 2, 3, 4, tileElems - 1, tileElems, tileElems + 1, 3*tileElems + 7}

// diffFrags returns the fragment sizes one differential run streams at: a
// 1..7-byte one (every run and element edge is crossed mid-fragment;
// skipped for large streams, where it only repeats itself) and one that
// spans many elements and starts most fragments mid-element.
func diffFrags(rng *rand.Rand, size, total int64) []int64 {
	big := []int64{16 << 10, 16<<10 + 3, 4099, 257, tileElems * size, tileElems*size + size/2 + 1, 2*size + 1}
	frags := []int64{big[rng.Intn(len(big))]}
	if total <= 32<<10 {
		frags = append(frags, int64(rng.Intn(7)+1))
	}
	return frags
}

// planDifferential is the oracle check behind both the fuzz target and
// the deterministic property tests: for one type and count, the compiled
// plan must byte-identically match the interpreter on Pack, on PackAt /
// UnpackAt at every fragmentation the seed selects, and on the region
// concatenation; Pack followed by Unpack must restore every data byte;
// and no call may write a byte it does not own (see guarded).
func planDifferential(t *testing.T, typ *Type, count int64, seed int64) {
	t.Helper()
	if typ.Size() == 0 {
		return
	}
	// Bounded: a valid description may still declare an enormous extent
	// (one that wraps the span is checkBuf's to refuse, see
	// TestPlanValidation), or runs that overlap into an enormous size.
	span := typ.Span(count)
	if typ.Extent() > 1<<20 || span > 1<<20 || typ.Size() > 1<<20 {
		return
	}
	total := typ.PackedSize(count)
	if total > 4<<20 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	_, src := guarded(span)
	copy(src, fill(span))

	// One-shot pack: plan vs interpreter.
	gotWhole, got := guarded(total)
	want := make([]byte, total)
	if _, err := typ.Pack(src, count, got); err != nil {
		t.Fatalf("plan pack: %v", err)
	}
	if _, err := typ.packInterp(src, count, want); err != nil {
		t.Fatalf("interp pack: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("plan pack differs from interpreter (%s x %d)", typ.Name(), count)
	}
	checkZones(t, "Pack("+typ.Name()+")", gotWhole, int(total))

	for _, frag := range diffFrags(rng, typ.Size(), total) {
		// Streaming: identical (n, err, bytes), nothing written past n.
		aWhole, a := guarded(frag)
		b := make([]byte, frag)
		for off := int64(0); ; {
			n1, err1 := typ.PackAt(src, count, off, a)
			n2, err2 := typ.packAtInterp(src, count, off, b)
			if n1 != n2 || err1 != err2 || !bytes.Equal(a[:n1], b[:n2]) {
				t.Fatalf("PackAt(%s x %d, off=%d, frag=%d): plan (%d,%v) != interp (%d,%v)",
					typ.Name(), count, off, frag, n1, err1, n2, err2)
			}
			checkZones(t, "PackAt("+typ.Name()+")", aWhole, n1)
			if off += int64(n1); off >= total {
				break
			}
			if n1 == 0 {
				t.Fatalf("PackAt(%s, off=%d): no progress (%v)", typ.Name(), off, err1)
			}
			prefill(a[:n1])
		}

		// Unpack through both engines at the same fragmentation, into
		// patterned destinations: equal results mean equal data bytes AND
		// every gap byte left as it was, the interpreter being the model
		// of "writes the runs and nothing else".
		dWhole, dst1 := guarded(span)
		dst2 := make([]byte, span)
		prefill(dst2)
		for off := int64(0); off < total; {
			end := min(off+frag, total)
			if err := typ.UnpackAt(dst1, count, off, want[off:end]); err != nil {
				t.Fatalf("plan UnpackAt: %v", err)
			}
			if err := typ.unpackAtInterp(dst2, count, off, want[off:end]); err != nil {
				t.Fatalf("interp UnpackAt: %v", err)
			}
			off = end
		}
		if !bytes.Equal(dst1, dst2) {
			t.Fatalf("plan unpack differs from interpreter (%s x %d, frag=%d)", typ.Name(), count, frag)
		}
		checkZones(t, "UnpackAt("+typ.Name()+")", dWhole, int(span))
		checkGaps(t, typ, count, dst1)
		// Pack . Unpack == id on the data bytes.
		if rt := refPack(typ, dst1, count); !bytes.Equal(rt, want) {
			t.Fatalf("Pack∘Unpack lost data bytes (%s)", typ.Name())
		}
	}

	// Region extraction: the plan's coalesced regions and the
	// interpreter's per-run regions must concatenate to the same stream.
	rs, err := typ.Regions(src, count)
	if err != nil {
		t.Fatalf("plan regions: %v", err)
	}
	old, err := typ.regionsInterp(src, count)
	if err != nil {
		t.Fatalf("interp regions: %v", err)
	}
	var cat1, cat2 []byte
	for _, r := range rs {
		cat1 = append(cat1, r...)
	}
	for _, r := range old {
		cat2 = append(cat2, r...)
	}
	if !bytes.Equal(cat1, cat2) {
		t.Fatalf("region concatenation differs from interpreter (%s)", typ.Name())
	}
	if int64(len(rs)) != typ.Plan().RegionCount(count) {
		t.Fatalf("RegionCount(%s) = %d, emitted %d", typ.Name(), typ.Plan().RegionCount(count), len(rs))
	}
}

// checkGaps asserts, without the interpreter's help, that every byte of
// dst no run covers still holds the prefill pattern.
func checkGaps(t *testing.T, typ *Type, count int64, dst []byte) {
	t.Helper()
	data := make([]bool, len(dst))
	for e := int64(0); e < count; e++ {
		for _, r := range typ.Runs() {
			for i := e*typ.Extent() + r.Off; i < e*typ.Extent()+r.Off+r.Len; i++ {
				data[i] = true
			}
		}
	}
	for i, d := range data {
		if !d && dst[i] != prefillByte(i) {
			t.Fatalf("UnpackAt(%s x %d) wrote gap byte %d", typ.Name(), count, i)
		}
	}
}

// FuzzPlanDifferential feeds arbitrary marshalled type descriptions —
// which may carry non-canonical run lists the constructors never emit —
// through the plan compiler and requires byte identity with the
// interpreter on every engine entry point, at a count the seed picks from
// diffCounts.
func FuzzPlanDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		f.Add(randomType(rng, rng.Intn(3)+1).Marshal(), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		typ, err := Unmarshal(data)
		if err != nil {
			return
		}
		planDifferential(t, typ, diffCounts[uint64(seed)%uint64(len(diffCounts))], seed)
	})
}

// TestPlanDifferentialRandomTypes is the always-on slice of the fuzz
// corpus: several hundred random nested types through the same oracle,
// so plain `go test` exercises the differential harness.
func TestPlanDifferentialRandomTypes(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 50
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < iters; i++ {
		typ := randomType(rng, rng.Intn(4)+1)
		planDifferential(t, typ, diffCounts[rng.Intn(len(diffCounts))], rng.Int63())
	}
}

// TestPlanCanaryTileEdges runs the differential, canaries and all, over
// one shape per kernel and move class at every count in diffCounts: the
// whole-element batches, tile boundaries and red zones the random types
// only sometimes reach.
func TestPlanCanaryTileEdges(t *testing.T) {
	shapes := resumeShapes(t)
	mk := func(name string) func(*Type, error) {
		return func(typ *Type, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			shapes[name] = typ
		}
	}
	// Run-list shapes by what their programs hold: every exact class
	// (1..3, 4, 5..7, 8, 9..15, 16, 17..128, >128 bytes), a wide program
	// whose last run cannot spill (8 bytes ending the packed image), one
	// whose runs overlap (unpack order is semantic), a first run past
	// offset 0, and an extent past the tiling bound.
	mk("classes")(Hindexed([]int{3, 4, 7, 8, 13, 16, 40, 129, 1}, []int64{1, 6, 12, 24, 40, 56, 80, 128, 300}, Byte))
	mk("wide-tail")(Struct([]int{5, 1}, []int64{0, 24}, []*Type{Int32, Float64}))
	mk("overlap")(Hindexed([]int{12, 12, 3}, []int64{0, 6, 30}, Byte))
	mk("late-start")(Struct([]int{1, 3}, []int64{5, 16}, []*Type{Byte, Int32}))
	mk("big-extent")(Resized(shapes["runlist"], 4104))
	// Uniform shapes off the word-multiple path: 12-, 20- and 36-byte
	// blocks, and the 40-byte strided block of the DDTBench kernels.
	mk("strided-12")(Vector(4, 3, 5, Int32))
	mk("strided-20")(Vector(3, 5, 7, Int32))
	mk("strided-36")(Vector(3, 9, 10, Int32))
	mk("strided-40")(Vector(5, 5, 9, Float64))
	five, err := Contiguous(5, Int32)
	if err != nil {
		t.Fatal(err)
	}
	mk("block-20")(Resized(five, 28))
	for _, typ := range shapes {
		for i, count := range diffCounts {
			planDifferential(t, typ, count, int64(i))
		}
	}
	if k := shapes["classes"].Plan().Kind(); k != PlanRunList {
		t.Fatalf("classes compiled to %v", k)
	}
}
