package ddt

import (
	"bytes"
	"io"
	"testing"
)

// planShapes returns one representative type per canonical form. The
// struct shapes mirror the paper's Listing 7 struct-simple (interior
// gap) and a single-field-at-offset block.
func planShapes(t *testing.T) map[string]*Type {
	t.Helper()
	contig, err := Contiguous(10, Int32)
	if err != nil {
		t.Fatal(err)
	}
	block, err := Struct([]int{1}, []int64{8}, []*Type{Float64})
	if err != nil {
		t.Fatal(err)
	}
	strided, err := Vector(3, 2, 4, Float64)
	if err != nil {
		t.Fatal(err)
	}
	runlist, err := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Type{
		"contig":  contig,
		"block":   block,
		"strided": strided,
		"runlist": runlist,
	}
}

func TestPlanKindSelection(t *testing.T) {
	shapes := planShapes(t)
	want := map[string]PlanKind{
		"contig":  PlanContig,
		"block":   PlanBlock,
		"strided": PlanStrided,
		"runlist": PlanRunList,
	}
	for name, typ := range shapes {
		p := typ.Plan()
		if p.Kind() != want[name] {
			t.Errorf("%s: plan kind = %v, want %v", name, p.Kind(), want[name])
		}
		if p.Kind().String() != name {
			t.Errorf("%s: kind string = %q", name, p.Kind().String())
		}
	}
	// Geometry of the strided plan: 3 blocks of 16 bytes, inner stride 32.
	p := shapes["strided"].Plan()
	if s := p.prog[0]; len(p.prog) != 1 || s.n != 3 || s.len != 16 || s.mstep != 32 || s.mem != 0 {
		t.Fatalf("strided geometry: %d steps, first %+v", len(p.prog), s)
	}
	// Predefined types are contiguous plans.
	if Float64.Plan().Kind() != PlanContig {
		t.Fatal("predefined type must compile to PlanContig")
	}
}

// TestPlanCacheShared verifies the interning contract: structurally
// identical types — Dup, marshal round-trips, independently built
// equivalents — share one compiled plan and never recompile.
func TestPlanCacheShared(t *testing.T) {
	ResetPlanCache()
	v1, _ := Vector(3, 2, 4, Float64)
	v2, _ := Vector(3, 2, 4, Float64)

	p1 := v1.Plan()
	hits0, misses0, _ := PlanCacheStats()
	if misses0 != 1 || hits0 != 0 {
		t.Fatalf("first compile: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	if p2 := v2.Plan(); p2 != p1 {
		t.Fatal("independently built equivalent type did not share the plan")
	}
	if p3 := v1.Dup().Plan(); p3 != p1 {
		t.Fatal("Dup did not share the plan")
	}
	u, err := Unmarshal(v1.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if p4 := u.Plan(); p4 != p1 {
		t.Fatal("Unmarshal reconstruction did not share the plan")
	}
	hits, misses, _ := PlanCacheStats()
	if misses != 1 {
		t.Fatalf("plan was recompiled: misses = %d", misses)
	}
	if hits != 3 {
		t.Fatalf("cache hits = %d, want 3", hits)
	}
	if n := PlanCacheSize(); n != 1 {
		t.Fatalf("cache size = %d, want 1", n)
	}
	// A different extent (Resized) is a different layout: new plan.
	r, err := Resized(v1, v1.Extent()+8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan() == p1 {
		t.Fatal("resized type must not share the plan")
	}
}

// TestPlanCacheEviction: interning is bounded; overflow evicts rather
// than growing without limit, and the evictions are counted rather than
// silent.
func TestPlanCacheEviction(t *testing.T) {
	ResetPlanCache()
	for i := 0; i < planCacheMax+64; i++ {
		typ, err := Vector(2, 1, 2+i, Float64)
		if err != nil {
			t.Fatal(err)
		}
		typ.Plan()
	}
	if n := PlanCacheSize(); n > planCacheMax {
		t.Fatalf("cache size %d exceeds bound %d", n, planCacheMax)
	}
	if ev := PlanCacheEvictions(); ev < 64 {
		t.Fatalf("evictions = %d after %d overflow compiles", ev, 64)
	}
	ResetPlanCache()
	if ev := PlanCacheEvictions(); ev != 0 {
		t.Fatalf("ResetPlanCache left eviction counter at %d", ev)
	}
}

// TestPlanCacheChurn is the regression for behavior at the cap: many
// goroutines churning well past planCacheMax distinct layouts must keep
// the cache bounded, count every eviction in the gauge, leave every
// evicted type's memoized plan fully usable (plans are immutable — no
// stale sharing, no corruption), and recompile an Equal plan when an
// evicted layout comes back through a fresh type. Run under -race.
func TestPlanCacheChurn(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()

	const (
		workers   = 8
		perWorker = (planCacheMax + 512) / workers // > planCacheMax total distinct layouts
	)
	types := make([][]*Type, workers)
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			types[w] = make([]*Type, perWorker)
			for i := 0; i < perWorker; i++ {
				// Distinct stride per (w, i): a unique layout each time.
				stride := 2 + w*perWorker + i
				typ, e := Vector(2, 1, stride, Float64)
				if e != nil {
					err = e
					break
				}
				typ.Plan() // compile + intern (and possibly evict)
				types[w][i] = typ
			}
			done <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	if n := PlanCacheSize(); n > planCacheMax {
		t.Fatalf("cache size %d exceeds bound %d after churn", n, planCacheMax)
	}
	total := int64(workers * perWorker)
	if ev := PlanCacheEvictions(); ev == 0 || ev > total {
		t.Fatalf("evictions = %d after %d distinct layouts, want in (0, %d]", ev, total, total)
	}
	_, misses, _ := PlanCacheStats()
	if misses != total {
		t.Fatalf("compiles = %d, want %d (every layout distinct)", misses, total)
	}

	// Every type — interned or evicted — still packs correctly through its
	// memoized plan: eviction must never invalidate a held pointer.
	for w := range types {
		for _, typ := range types[w] {
			src := fill(typ.Span(2))
			dst := make([]byte, typ.PackedSize(2))
			if _, err := typ.Pack(src, 2, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, refPack(typ, src, 2)) {
				t.Fatalf("type %s mis-packs after cache churn", typ.Name())
			}
		}
	}

	// An evicted layout requested through a fresh type recompiles to an
	// equivalent plan (same canonical geometry, same hash).
	old := types[0][0]
	fresh, err := Vector(2, 1, 2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(old, fresh) {
		t.Fatal("churn test rebuilt a different layout")
	}
	op, fp := old.Plan(), fresh.Plan()
	if op.Kind() != fp.Kind() || op.Hash() != fp.Hash() || op.PackedSize(3) != fp.PackedSize(3) || op.Span(3) != fp.Span(3) {
		t.Fatal("recompiled plan disagrees with the evicted original")
	}
}

// TestPlanPackZeroAllocs is the cache-hit alloc guard: once a type's
// plan is memoized, Pack/Unpack/PackAt/UnpackAt allocate nothing — the
// whole-element kernels and the split-element walk alike.
func TestPlanPackZeroAllocs(t *testing.T) {
	for name, typ := range planShapes(t) {
		const count = 4
		src := fill(typ.Span(count))
		dst := make([]byte, typ.PackedSize(count))
		typ.Plan() // memoize
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := typ.Pack(src, count, dst); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Pack allocates %v per op on the cache-hit path", name, allocs)
		}
		out := make([]byte, typ.Span(count))
		if allocs := testing.AllocsPerRun(100, func() {
			if err := typ.Unpack(out, count, dst); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Unpack allocates %v per op on the cache-hit path", name, allocs)
		}
		frag := make([]byte, 16)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := typ.PackAt(src, count, 8, frag); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: PackAt allocates %v per op", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := typ.UnpackAt(src, count, 8, frag); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: UnpackAt allocates %v per op", name, allocs)
		}
	}
}

// TestAppendRegionsZeroAllocs: with caller-owned scratch of sufficient
// capacity, region extraction is allocation-free (the satellite fix for
// the count x runs header blow-up).
func TestAppendRegionsZeroAllocs(t *testing.T) {
	for name, typ := range planShapes(t) {
		const count = 8
		buf := fill(typ.Span(count))
		p := typ.Plan()
		scratch := make([][]byte, 0, p.RegionCount(count))
		if allocs := testing.AllocsPerRun(100, func() {
			rs, err := p.AppendRegions(scratch[:0], buf, count)
			if err != nil || int64(len(rs)) != p.RegionCount(count) {
				t.Fatalf("regions: %d (%v), want %d", len(rs), err, p.RegionCount(count))
			}
		}); allocs != 0 {
			t.Errorf("%s: AppendRegions allocates %v per op with scratch", name, allocs)
		}
	}
}

// TestRegionCountMatchesAppend: the precomputed count equals what
// AppendRegions emits, and the region concatenation is the packed image.
func TestRegionCountMatchesAppend(t *testing.T) {
	for name, typ := range planShapes(t) {
		p := typ.Plan()
		for _, count := range []int64{0, 1, 2, 5} {
			buf := fill(typ.Span(count))
			rs, err := p.AppendRegions(nil, buf, count)
			if err != nil {
				t.Fatalf("%s/count=%d: %v", name, count, err)
			}
			if int64(len(rs)) != p.RegionCount(count) {
				t.Errorf("%s/count=%d: RegionCount %d but AppendRegions emitted %d",
					name, count, p.RegionCount(count), len(rs))
			}
			var concat []byte
			for _, r := range rs {
				concat = append(concat, r...)
			}
			if !bytes.Equal(concat, refPack(typ, buf, count)) {
				t.Errorf("%s/count=%d: region concatenation != packed image", name, count)
			}
		}
	}
	// Cross-element coalescing: the strided vector's last run ends at the
	// extent, so element boundaries merge: runs*count - (count-1).
	v, _ := Vector(3, 2, 4, Float64)
	if n := v.Plan().RegionCount(4); n != 3*4-3 {
		t.Fatalf("vector RegionCount(4) = %d, want %d", n, 3*4-3)
	}
	// No coalescing when the first run starts past offset 0.
	s, _ := Struct([]int{1, 1}, []int64{8, 24}, []*Type{Float64, Float64})
	if n := s.Plan().RegionCount(3); n != 2*3 {
		t.Fatalf("gapped struct RegionCount(3) = %d, want 6", n)
	}
}

func TestPlanValidation(t *testing.T) {
	v, _ := Vector(3, 2, 4, Float64)
	p := v.Plan()
	const count = 2
	src := fill(v.Span(count))
	dst := make([]byte, p.PackedSize(count))

	if _, err := p.PackAt(src, count, -1, dst); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := p.PackAt(src, count, p.PackedSize(count)+1, dst); err == nil {
		t.Fatal("offset past end accepted")
	}
	if _, err := p.PackAt(src[:3], count, 0, dst); err == nil {
		t.Fatal("short source accepted")
	}
	if _, err := p.PackAt(src, -1, 0, dst); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := p.Pack(src, count, dst[:1]); err == nil {
		t.Fatal("short pack destination accepted")
	}
	if err := p.Unpack(src, count, dst[:1]); err == nil {
		t.Fatal("wrong unpack source length accepted")
	}
	if err := p.UnpackAt(src, count, p.PackedSize(count)-1, dst[:2]); err == nil {
		t.Fatal("unpack range past end accepted")
	}
	if _, err := p.AppendRegions(nil, src[:1], count); err == nil {
		t.Fatal("short region buffer accepted")
	}
	// A span that wraps int64 must be refused, not truncated: 4 x 2^62
	// wraps to 0, and the kernels trust whatever checkBuf lets through.
	huge, err := Resized(Float64, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := huge.PackAt(src[:8], 5, 8, dst); err == nil {
		t.Fatal("wrapped span accepted by PackAt")
	}
	if err := huge.UnpackAt(src[:8], 5, 8, dst[:8]); err == nil {
		t.Fatal("wrapped span accepted by UnpackAt")
	}
}

func TestPlanZeroCount(t *testing.T) {
	v, _ := Vector(3, 2, 4, Float64)
	p := v.Plan()
	n, err := p.PackAt(nil, 0, 0, make([]byte, 8))
	if n != 0 || err != io.EOF {
		t.Fatalf("PackAt(count=0) = %d, %v", n, err)
	}
	if err := p.UnpackAt(nil, 0, 0, nil); err != nil {
		t.Fatalf("UnpackAt(count=0): %v", err)
	}
	rs, err := p.AppendRegions(nil, nil, 0)
	if err != nil || len(rs) != 0 {
		t.Fatalf("AppendRegions(count=0) = %d regions, %v", len(rs), err)
	}
}
