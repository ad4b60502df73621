package ddt

// This file is the datatype plan compiler: the TEMPI-style answer to
// interpreting the typemap on every pack. At commit time a type's
// flattened run list is folded into a program of strided-block steps, and
// the shape of that program is the type's canonical form:
//
//	PlanContig  — layout equals packed form: one straight copy.
//	PlanBlock   — one step of one block per element, at stride extent
//	              (vectors with blocklen 1, resized single-run structs).
//	PlanStrided — one step of n equal blocks per element at a fixed inner
//	              stride (vectors, subarray rows).
//	PlanRunList — several steps: irregular typemaps, structs of vectors.
//
// One kernel runs every program in both directions, over one move
// primitive with a compile-time move class per step (4/8/16-byte word
// moves for small blocks) and no per-move bounds check: PackAt / UnpackAt
// validate their ranges once.
//
// A packed offset is located by div/mod to the element and a binary search
// over the program's steps — O(1) for uniform plans — so striped rendezvous
// fragments pay no per-fragment setup. Compiled plans are interned in a concurrent cache
// keyed by a canonical layout hash: structurally identical types (Dup,
// Unmarshal reconstruction, independently built equivalents) share one
// plan and are never recompiled. Each Type additionally memoizes its plan
// pointer, so the pack hot path is a single atomic load — zero
// allocations after first use.

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mpicd/internal/obs"
)

// PlanKind identifies the canonical form a type compiled to.
type PlanKind uint8

// The canonical forms, from most to least specialized.
const (
	PlanContig PlanKind = iota
	PlanBlock
	PlanStrided
	PlanRunList
)

// String names the kind for diagnostics and stats.
func (k PlanKind) String() string {
	switch k {
	case PlanContig:
		return "contig"
	case PlanBlock:
		return "block"
	case PlanStrided:
		return "strided"
	default:
		return "runlist"
	}
}

// Plan is a compiled pack/unpack program for one canonical layout. Plans
// are immutable and safe for concurrent use at arbitrary disjoint offsets
// (the striped rendezvous contract).
type Plan struct {
	kind   PlanKind
	size   int64 // packed bytes per element
	extent int64 // element spacing in the buffer
	ub     int64 // upper bound of one element's runs

	// Canonical per-element run list, kept for region extraction.
	runs []Run

	// prog is the compiled per-element program every non-contiguous kind
	// packs and unpacks by: the run list folded into strided steps, each
	// with its move class, so small runs are word moves instead of per-run
	// memmove calls. A uniform layout (PlanBlock, PlanStrided) is a program
	// of one step. wprog, when the layout permits one, is the flattened
	// wide-move variant (see compileWide) that pack uses on all but the
	// final element of a whole-element batch: its <=15-byte dst spill stays
	// inside the element's packed image and its src overread inside the
	// following element. tile is how many elements a program step covers
	// before the next step runs.
	prog  []step
	wprog []step
	tile  int64

	// merge: the last run of element e ends exactly where the first run of
	// element e+1 begins, so regions coalesce across element boundaries
	// (always true when extent == size).
	merge bool
	hash  uint64
}

// Kind returns the canonical form the layout compiled to.
func (p *Plan) Kind() PlanKind { return p.kind }

// Hash returns the canonical layout hash the plan cache keys on.
func (p *Plan) Hash() uint64 { return p.hash }

// PackedSize returns the packed byte size of count elements.
func (p *Plan) PackedSize(count int64) int64 { return count * p.size }

// Span returns the number of buffer bytes count elements occupy.
func (p *Plan) Span(count int64) int64 {
	if count <= 0 {
		return 0
	}
	return (count-1)*p.extent + p.ub
}

// checkBuf is the single validation point of the typed side: buf holds
// count elements. The kernels dereference raw pointers on the strength of
// it, so the span is computed without wrapping — a count or a wire-supplied
// extent large enough to overflow int64 is refused, not truncated.
func (p *Plan) checkBuf(buf []byte, count int64) error {
	if count < 0 {
		return fmt.Errorf("ddt: negative count %d", count)
	}
	if count == 0 {
		return nil
	}
	hi, lo := bits.Mul64(uint64(count-1), uint64(p.extent))
	if hi != 0 || lo > uint64(math.MaxInt64-p.ub) || int64(lo)+p.ub > int64(len(buf)) {
		return fmt.Errorf("ddt: buffer of %d bytes cannot hold %d elements (extent %d)", len(buf), count, p.extent)
	}
	return nil
}

// --- compilation -------------------------------------------------------------

// Move classes for one block or run: selected once at compile time so the
// kernels replace per-run memmove calls with word moves of a fixed shape
// — the difference between a derived type and the constant-size copies a
// hand-written pack compiles to. moveStrided has one loop per class.
const (
	clsTiny   uint8 = iota // 1..3 bytes: byte loop
	clsMove4               // exactly 4 bytes
	clsMove8               // exactly 8 bytes
	clsMove16              // exactly 16 bytes
	clsDual4               // 5..7 bytes: two overlapping 4-byte moves
	clsDual8               // 9..15 bytes: two overlapping 8-byte moves
	clsWords               // 17..128 bytes: 16-byte moves + overlap tail
	clsCopy                // >128 bytes: memmove wins
)

// tileElems is the run-major tile: a 64-element window of a layout the
// tiled kernels accept (extent <= 4096) stays cache-resident while every
// program step passes over it.
const tileElems = 64

// step is one instruction of a compiled per-element program: n moves of
// class cls between mem (offset within the element, advancing mstep a
// move) and pk (offset within the element's packed image, advancing len).
// The exact program folds every maximal sequence of equal-length runs at a
// constant stride into one step, so a run list that is strided in parts —
// a struct of vectors, one giant element with thousands of small runs —
// executes as a few strided moves, not one call a run. The wide program
// keeps n == 1; there a clsMove16 step may cover fewer than 16 payload
// bytes: the spill is compiled in only when it stays inside the element's
// packed image, on positions later steps rewrite.
type step struct {
	mem, pk  int64
	len      int64
	n, mstep int64
	cls      uint8
}

func moveClass(n int64) uint8 {
	switch {
	case n < 4:
		return clsTiny
	case n == 4:
		return clsMove4
	case n < 8:
		return clsDual4
	case n == 8:
		return clsMove8
	case n < 16:
		return clsDual8
	case n == 16:
		return clsMove16
	case n <= 128:
		return clsWords
	default:
		return clsCopy
	}
}

func compileProg(runs []Run) []step {
	var prog []step
	w := int64(0)
	for i := 0; i < len(runs); {
		r := runs[i]
		s := step{mem: r.Off, pk: w, len: r.Len, n: 1, cls: moveClass(r.Len)}
		if i+1 < len(runs) && runs[i+1].Len == r.Len {
			s.mstep = runs[i+1].Off - r.Off
			for j := i + 1; j < len(runs) && runs[j].Len == r.Len && runs[j].Off-runs[j-1].Off == s.mstep; j++ {
				s.n++
			}
		}
		prog = append(prog, s)
		i += int(s.n)
		w += s.n * r.Len
	}
	return prog
}

// compileWide flattens the run list into a straight-line move program
// (runs up to 128 bytes become 16-byte SSE-width moves; larger runs
// stay memmoves). A run tail shorter than 16 bytes still uses a full
// 16-byte move when the write stays within the element's packed size:
// the <=15 spilled bytes land on packed positions of LATER runs of the
// same element, which later steps overwrite — the packed stream is
// dense. Tails whose 16-byte write would cross the element boundary
// compile to exact move classes instead, so the program never writes
// outside its own element. This makes the program safe to execute in
// any step/element order (the kernels run it run-major, tiled).
// Spilling moves may still READ up to 15 bytes past their run, so
// callers keep the final element of a batch on the exact program.
func compileWide(runs []Run, size int64) []step {
	var prog []step
	w := int64(0)
	for _, r := range runs {
		if r.Len > 128 {
			prog = append(prog, step{mem: r.Off, pk: w, len: r.Len, n: 1, cls: clsCopy})
			w += r.Len
			continue
		}
		k := int64(0)
		for ; k+16 <= r.Len; k += 16 {
			prog = append(prog, step{mem: r.Off + k, pk: w + k, len: 16, n: 1, cls: clsMove16})
		}
		if t := r.Len - k; t > 0 {
			if w+k+16 <= size {
				prog = append(prog, step{mem: r.Off + k, pk: w + k, len: 16, n: 1, cls: clsMove16})
			} else {
				prog = append(prog, step{mem: r.Off + k, pk: w + k, len: t, n: 1, cls: moveClass(t)})
			}
		}
		w += r.Len
	}
	return prog
}

// canonicalRuns coalesces adjacent-in-sequence runs and drops empty ones
// without reordering (pack order is semantic). Constructor-built types are
// already canonical, so the common case returns the input slice unchanged.
func canonicalRuns(runs []Run) []Run {
	clean := true
	for i, r := range runs {
		if r.Len <= 0 || (i > 0 && runs[i-1].Off+runs[i-1].Len == r.Off) {
			clean = false
			break
		}
	}
	if clean {
		return runs
	}
	co := make([]Run, 0, len(runs))
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		if n := len(co); n > 0 && co[n-1].Off+co[n-1].Len == r.Off {
			co[n-1].Len += r.Len
			continue
		}
		co = append(co, r)
	}
	return co
}

// buildPlan selects the canonical form for (extent, ub, canonical runs):
// contiguous, or whatever the compiled program turns out to be — a single
// move an element, a single strided step, or a list of them.
func buildPlan(extent, ub int64, runs []Run) *Plan {
	var size int64
	for _, r := range runs {
		size += r.Len
	}
	p := &Plan{size: size, extent: extent, ub: ub, runs: runs}
	if len(runs) == 0 || (len(runs) == 1 && runs[0].Off == 0 && size == extent) {
		p.kind = PlanContig
		return p
	}
	// Adjacent-in-sequence runs are already coalesced, so a uniform stride
	// never equals the block length.
	p.prog = compileProg(runs)
	switch {
	case len(p.prog) > 1:
		p.kind = PlanRunList
	case p.prog[0].n > 1:
		p.kind = PlanStrided
	default:
		p.kind = PlanBlock
	}
	// Run-major tiling only pays off when a tile of elements stays
	// cache-resident: for large extents the interchange re-walks a huge
	// window once per program step, so those layouts run the program
	// element by element (a tile of one).
	p.tile = 1
	if extent <= 4096 {
		p.tile = tileElems
	}
	// The wide pack program also needs >=16-byte spill headroom on both
	// sides; a uniform layout's one exact step is already a single loop.
	if p.kind == PlanRunList && p.tile > 1 && size >= 16 && extent >= 16 {
		p.wprog = compileWide(runs, size)
	}
	last := runs[len(runs)-1]
	p.merge = runs[0].Off == 0 && last.Off+last.Len == extent
	return p
}

// --- plan cache --------------------------------------------------------------

// planCacheMax bounds interned plans; real workloads use a handful of
// types, so eviction is a runaway damper, not a tuning knob.
const planCacheMax = 1024

var planCache = struct {
	sync.RWMutex
	m map[uint64][]*Plan
	n int
}{m: make(map[uint64][]*Plan)}

var (
	planHits      atomic.Int64
	planMisses    atomic.Int64
	planCompileNS atomic.Int64
	planEvicts    atomic.Int64
)

// layoutHash is FNV-1a over (extent, canonical run list): the structural
// identity Equal uses, so transfer-equivalent types share one plan.
func layoutHash(extent int64, runs []Run) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(extent))
	mix(uint64(len(runs)))
	for _, r := range runs {
		mix(uint64(r.Off))
		mix(uint64(r.Len))
	}
	return h
}

func runsEqual(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cacheGet(h uint64, extent int64, runs []Run) *Plan {
	planCache.RLock()
	defer planCache.RUnlock()
	for _, p := range planCache.m[h] {
		if p.extent == extent && runsEqual(p.runs, runs) {
			return p
		}
	}
	return nil
}

// cachePut interns p, returning the winner if another goroutine compiled
// the same layout first.
func cachePut(p *Plan) *Plan {
	planCache.Lock()
	defer planCache.Unlock()
	for _, q := range planCache.m[p.hash] {
		if q.extent == p.extent && runsEqual(q.runs, p.runs) {
			return q
		}
	}
	// At the cap, evict one bucket before interning. Eviction is safe by
	// construction — plans are immutable and every Type that memoized an
	// evicted plan keeps a valid pointer; the only cost is a recompile if
	// the same layout is requested through a fresh Type later. The
	// planEvicts counter (ddt.plan_evictions gauge) makes cap churn
	// observable instead of silent.
	if planCache.n >= planCacheMax {
		for k, ps := range planCache.m {
			if k == p.hash {
				continue // never evict the bucket we are about to fill
			}
			planCache.n -= len(ps)
			planEvicts.Add(int64(len(ps)))
			delete(planCache.m, k)
			break
		}
	}
	planCache.m[p.hash] = append(planCache.m[p.hash], p)
	planCache.n++
	return p
}

// planForLayout is the cache front door: canonicalize, hash, look up,
// compile on miss.
func planForLayout(extent, ub int64, runs []Run) *Plan {
	canon := canonicalRuns(runs)
	h := layoutHash(extent, canon)
	if p := cacheGet(h, extent, canon); p != nil {
		planHits.Add(1)
		return p
	}
	start := time.Now()
	p := buildPlan(extent, ub, canon)
	p.hash = h
	planCompileNS.Add(time.Since(start).Nanoseconds())
	planMisses.Add(1)
	return cachePut(p)
}

// Plan returns the type's compiled plan, compiling (or fetching the
// interned equivalent) on first use. The result is memoized, so steady-
// state callers pay one atomic load and zero allocations.
func (t *Type) Plan() *Plan {
	if p := t.plan.Load(); p != nil {
		return p
	}
	p := planForLayout(t.extent, t.ub, t.runs)
	t.plan.Store(p)
	return p
}

// PlanCacheStats reports cumulative plan-cache counters: cache hits,
// compiles (misses) and total nanoseconds spent compiling.
func PlanCacheStats() (hits, misses, compileNS int64) {
	return planHits.Load(), planMisses.Load(), planCompileNS.Load()
}

// PlanCacheSize returns the number of interned plans.
func PlanCacheSize() int {
	planCache.RLock()
	defer planCache.RUnlock()
	return planCache.n
}

// PlanCacheEvictions reports how many interned plans have been evicted
// at the planCacheMax cap. A nonzero value under a steady workload means
// the working set of distinct layouts exceeds the cache bound and plans
// are being recompiled.
func PlanCacheEvictions() int64 { return planEvicts.Load() }

// PlanCacheCap returns the intern bound (eviction threshold).
func PlanCacheCap() int { return planCacheMax }

// ResetPlanCache drops every interned plan and zeroes the counters. It is
// for tests and ablation benchmarks; types keep their memoized plans.
func ResetPlanCache() {
	planCache.Lock()
	planCache.m = make(map[uint64][]*Plan)
	planCache.n = 0
	planCache.Unlock()
	planHits.Store(0)
	planMisses.Store(0)
	planCompileNS.Store(0)
	planEvicts.Store(0)
}

// RegisterObs exposes the plan-cache counters as live gauges on r
// (ddt.plan_hits / ddt.plan_misses / ddt.plan_compile_ns /
// ddt.plan_cache_size / ddt.plan_evictions), visible in registry
// snapshots.
func RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("ddt.plan_hits", planHits.Load)
	r.GaugeFunc("ddt.plan_misses", planMisses.Load)
	r.GaugeFunc("ddt.plan_compile_ns", planCompileNS.Load)
	r.GaugeFunc("ddt.plan_cache_size", func() int64 { return int64(PlanCacheSize()) })
	r.GaugeFunc("ddt.plan_evictions", planEvicts.Load)
}

// --- pack/unpack kernels -----------------------------------------------------
//
// Both directions run the same kernels over one primitive, moveStrided.
// The rule that makes its raw pointers sound is validate once: PackAt and
// UnpackAt check, before the first byte moves, that
//
//   - the typed buffer holds Span(count) bytes (checkBuf, overflow-safe):
//     every run of every element e < count lies in [e*extent,
//     e*extent+ub), so any typed-side address a kernel forms from an
//     element index below count and a run of the plan is inside it;
//   - the packed fragment is [off, off+n) with off+n <= PackedSize(count):
//     the kernels derive element indices from off and n alone, so they
//     never name an element at or past count, and they move exactly n
//     packed bytes, so they never leave the fragment.
//
// After that no kernel reslices or re-checks: they take the two base
// pointers (xfer) and offsets into the validated ranges. The interpreter
// in interp_test.go is the oracle for the semantics; the canary tests in
// fuzz_test.go hold the kernels to "not one byte outside a run".

// PackAt packs up to len(dst) bytes of the packed form of (src, count)
// starting at virtual packed offset off, returning the bytes produced and
// io.EOF exactly when the stream end was reached.
func (p *Plan) PackAt(src []byte, count int64, off int64, dst []byte) (int, error) {
	total := p.PackedSize(count)
	if off < 0 || off > total {
		return 0, fmt.Errorf("ddt: pack offset %d out of [0,%d]", off, total)
	}
	if err := p.checkBuf(src, count); err != nil {
		return 0, err
	}
	if rem := total - off; int64(len(dst)) > rem {
		dst = dst[:rem]
	}
	if len(dst) == 0 {
		if off == total {
			return 0, io.EOF
		}
		return 0, nil
	}
	if p.kind == PlanContig {
		return copy(dst, src[off:]), nil
	}
	p.moveAt(&xfer{mem: unsafe.Pointer(unsafe.SliceData(src)), pk: unsafe.Pointer(unsafe.SliceData(dst)), pack: true}, off, int64(len(dst)))
	if off+int64(len(dst)) == total {
		return len(dst), io.EOF
	}
	return len(dst), nil
}

// UnpackAt scatters the packed bytes in src at virtual packed offset off
// back into the memory layout of (dst, count). It writes the bytes of the
// runs and nothing else: gaps keep what they held.
func (p *Plan) UnpackAt(dst []byte, count int64, off int64, src []byte) error {
	total := p.PackedSize(count)
	if off < 0 || off+int64(len(src)) > total {
		return fmt.Errorf("ddt: unpack range [%d,%d) out of [0,%d]", off, off+int64(len(src)), total)
	}
	if err := p.checkBuf(dst, count); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	if p.kind == PlanContig {
		copy(dst[off:], src)
		return nil
	}
	p.moveAt(&xfer{mem: unsafe.Pointer(unsafe.SliceData(dst)), pk: unsafe.Pointer(unsafe.SliceData(src))}, off, int64(len(src)))
	return nil
}

// Pack packs count elements of src into dst (one-shot convenience).
func (p *Plan) Pack(src []byte, count int64, dst []byte) (int64, error) {
	total := p.PackedSize(count)
	if int64(len(dst)) < total {
		return 0, fmt.Errorf("ddt: pack destination too small (%d < %d)", len(dst), total)
	}
	n, err := p.PackAt(src, count, 0, dst[:total])
	if err == io.EOF {
		err = nil
	}
	if err == nil && int64(n) != total {
		err = fmt.Errorf("ddt: short pack (%d of %d bytes)", n, total)
	}
	return int64(n), err
}

// Unpack scatters the packed bytes in src into count elements at dst.
func (p *Plan) Unpack(dst []byte, count int64, src []byte) error {
	if int64(len(src)) != p.PackedSize(count) {
		return fmt.Errorf("ddt: unpack source is %d bytes, want %d", len(src), p.PackedSize(count))
	}
	return p.UnpackAt(dst, count, 0, src)
}

// xfer is one validated PackAt/UnpackAt call: mem is the start of the
// typed buffer, pk the start of the packed fragment, pack the direction.
type xfer struct {
	mem, pk unsafe.Pointer
	pack    bool
}

// bytes moves one range of n bytes: the split blocks and runs a fragment
// edge leaves behind.
func (x *xfer) bytes(mo, po, n int64) { x.moveStrided(mo, po, 1, 0, 0, n, clsCopy) }

// moveStrided is the one move primitive: n blocks of L bytes between typed
// offset mo, advancing mstep a block, and fragment offset po, advancing
// pstep. Direction is only which side is the destination. cls is
// moveClass(L), or clsMove16 for a step of the wide pack program, spilling
// or not. There is no bounds check here: every byte touched lies in
// a range PackAt/UnpackAt validated. The offsets are integers and a
// pointer is formed only for the access itself, so no pointer outside the
// two buffers ever exists, not even one past the last block.
func (x *xfer) moveStrided(mo, po, n, mstep, pstep, L int64, cls uint8) {
	d, s, dstep, sstep := unsafe.Add(x.mem, mo), unsafe.Add(x.pk, po), mstep, pstep
	if x.pack {
		d, s, dstep, sstep = s, d, sstep, dstep
	}
	var do, so int64
	switch cls {
	case clsMove16:
		for ; n > 0; n-- {
			*(*[16]byte)(unsafe.Add(d, do)) = *(*[16]byte)(unsafe.Add(s, so))
			do += dstep
			so += sstep
		}
	case clsMove8:
		for ; n > 0; n-- {
			*(*[8]byte)(unsafe.Add(d, do)) = *(*[8]byte)(unsafe.Add(s, so))
			do += dstep
			so += sstep
		}
	case clsMove4:
		for ; n > 0; n-- {
			*(*[4]byte)(unsafe.Add(d, do)) = *(*[4]byte)(unsafe.Add(s, so))
			do += dstep
			so += sstep
		}
	case clsDual8:
		for t := L - 8; n > 0; n-- {
			*(*[8]byte)(unsafe.Add(d, do)) = *(*[8]byte)(unsafe.Add(s, so))
			*(*[8]byte)(unsafe.Add(d, do+t)) = *(*[8]byte)(unsafe.Add(s, so+t))
			do += dstep
			so += sstep
		}
	case clsDual4:
		for t := L - 4; n > 0; n-- {
			*(*[4]byte)(unsafe.Add(d, do)) = *(*[4]byte)(unsafe.Add(s, so))
			*(*[4]byte)(unsafe.Add(d, do+t)) = *(*[4]byte)(unsafe.Add(s, so+t))
			do += dstep
			so += sstep
		}
	case clsTiny:
		for ; n > 0; n-- {
			for k := int64(0); k < L; k++ {
				*(*byte)(unsafe.Add(d, do+k)) = *(*byte)(unsafe.Add(s, so+k))
			}
			do += dstep
			so += sstep
		}
	case clsWords:
		// 17..128 bytes: 16-byte moves, the last one overlapping back so
		// it ends exactly at L.
		for t := L - 16; n > 0; n-- {
			for k := int64(0); k < t; k += 16 {
				*(*[16]byte)(unsafe.Add(d, do+k)) = *(*[16]byte)(unsafe.Add(s, so+k))
			}
			*(*[16]byte)(unsafe.Add(d, do+t)) = *(*[16]byte)(unsafe.Add(s, so+t))
			do += dstep
			so += sstep
		}
	default: // clsCopy
		for ; n > 0; n-- {
			copy(unsafe.Slice((*byte)(unsafe.Add(d, do)), L), unsafe.Slice((*byte)(unsafe.Add(s, so)), L))
			do += dstep
			so += sstep
		}
	}
}

// moveAt moves the n packed bytes at packed offset off; n >= 1 and
// off+n <= PackedSize(count), the typed side validated by checkBuf. A
// partial leading element enters the program at the step holding the
// offset (streaming resume), whole elements run it tiled, a partial
// trailing element enters at its start.
func (p *Plan) moveAt(x *xfer, off, n int64) {
	elem := off / p.size
	within := off - elem*p.size
	po := int64(0)
	if within > 0 {
		po = p.moveElemPart(x, elem, within, 0, n)
		if within+po < p.size {
			return // fragment ends inside the element
		}
		elem++
	}
	if nE := (n - po) / p.size; nE > 0 {
		p.moveElems(x, elem, po, nE)
		elem += nE
		po += nE * p.size
	}
	if po < n {
		p.moveElemPart(x, elem, 0, po, n-po)
	}
}

// moveElemPart moves element elem from packed offset within to the end of
// the element, or until n bytes are done, against fragment offset po, and
// returns the bytes moved. It costs one search over the program's steps —
// O(1) for a uniform layout — then, step by step, a split leading block,
// the whole blocks as one strided move, a split trailing block: a fragment
// edge inside a giant element is as cheap as the element's middle.
func (p *Plan) moveElemPart(x *xfer, elem, within, po, n int64) int64 {
	prog := p.prog
	si := sort.Search(len(prog), func(i int) bool { return prog[i].pk+prog[i].n*prog[i].len > within })
	base := elem * p.extent
	done := int64(0)
	for ; si < len(prog) && done < n; si++ {
		s := &prog[si]
		at := max(within-s.pk, 0) // the first step is entered mid-way, the rest at 0
		k := at / s.len
		if rem := at - k*s.len; rem > 0 {
			m := min(s.len-rem, n-done)
			x.bytes(base+s.mem+k*s.mstep+rem, po+done, m)
			done += m
			k++
		}
		if nb := min(s.n-k, (n-done)/s.len); nb > 0 {
			x.moveStrided(base+s.mem+k*s.mstep, po+done, nb, s.mstep, s.len, s.len, s.cls)
			done += nb * s.len
			k += nb
		}
		if k < s.n && done < n {
			x.bytes(base+s.mem+k*s.mstep, po+done, n-done)
			done = n
		}
	}
	return done
}

// moveElems runs the compiled program over n whole elements from elem,
// whose packed image starts at fragment offset po. Unpack always runs the
// exact program: it may not put a byte in a gap. Pack runs all but its
// last element through the wide program when the layout has one — the
// spill stays inside each element's packed image (a compileWide
// guarantee), and a spilling step reads at most 15 bytes past its run,
// which extent >= 16 keeps inside the following element; the last element
// of the batch has no follower to read into, so it is packed exactly.
func (p *Plan) moveElems(x *xfer, elem, po, n int64) {
	if x.pack && p.wprog != nil && n > 1 {
		p.runProg(x, p.wprog, elem, po, n-1)
		elem += n - 1
		po += (n - 1) * p.size
		n = 1
	}
	p.runProg(x, p.prog, elem, po, n)
}

// runProg executes prog over tiles of elements, each step with its longer
// trip count innermost: across the tile for a step of few moves (run-major
// — one move shape per inner loop, the program walk amortized over the
// tile, the tile's bytes still in cache when the next step comes round),
// along the step for one with more moves than the tile has elements. Any
// order is sound on the packed side (steps write disjoint ranges, or, in
// the wide program, spill only onto positions a later step of the same
// element rewrites); on the typed side elements never overlap (ub <=
// extent) and the moves of one element keep their typemap order, which is
// what overlapping runs unpack by.
func (p *Plan) runProg(x *xfer, prog []step, elem, po, n int64) {
	ext, sz := p.extent, p.size
	for t0 := int64(0); t0 < n; t0 += p.tile {
		nt := min(p.tile, n-t0)
		mo, qo := (elem+t0)*ext, po+t0*sz
		for _, s := range prog {
			if s.n <= nt {
				for k := int64(0); k < s.n; k++ {
					x.moveStrided(mo+s.mem+k*s.mstep, qo+s.pk+k*s.len, nt, ext, sz, s.len, s.cls)
				}
			} else {
				for e := int64(0); e < nt; e++ {
					x.moveStrided(mo+e*ext+s.mem, qo+e*sz+s.pk, s.n, s.mstep, s.len, s.len, s.cls)
				}
			}
		}
	}
}

// --- region extraction -------------------------------------------------------

// RegionCount returns the number of memory regions AppendRegions will
// produce for count elements, after cross-element coalescing.
func (p *Plan) RegionCount(count int64) int64 {
	if count <= 0 || p.size == 0 {
		return 0
	}
	if p.kind == PlanContig {
		return 1
	}
	n := int64(len(p.runs)) * count
	if p.merge {
		n -= count - 1
	}
	return n
}

// AppendRegions appends the memory regions of (buf, count) to dst in pack
// order, merging runs that are adjacent across element boundaries (the
// extent == size case collapses entirely). Callers pass reusable scratch
// with sufficient capacity to keep the operation allocation-free.
func (p *Plan) AppendRegions(dst [][]byte, buf []byte, count int64) ([][]byte, error) {
	if err := p.checkBuf(buf, count); err != nil {
		return nil, err
	}
	if count == 0 || p.size == 0 {
		return dst, nil
	}
	if p.kind == PlanContig {
		return append(dst, buf[:p.PackedSize(count)]), nil
	}
	var prevS, prevE int64 = -1, -1
	for e := int64(0); e < count; e++ {
		base := e * p.extent
		for _, r := range p.runs {
			s := base + r.Off
			if s == prevE {
				prevE = s + r.Len
				continue
			}
			if prevE > prevS {
				dst = append(dst, buf[prevS:prevE])
			}
			prevS, prevE = s, s+r.Len
		}
	}
	if prevE > prevS {
		dst = append(dst, buf[prevS:prevE])
	}
	return dst, nil
}
