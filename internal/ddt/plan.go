package ddt

// This file is the datatype plan compiler: the TEMPI-style answer to
// interpreting the typemap on every pack. At commit time a type's
// flattened run list is canonicalized into a small family of strided-block
// descriptors and a specialized kernel is selected once per type:
//
//	PlanContig  — layout equals packed form: one straight copy.
//	PlanBlock   — one fixed-length block per element at stride extent
//	              (vectors with blocklen 1, resized single-run structs).
//	PlanStrided — n equal blocks per element at a fixed inner stride
//	              (vectors, subarray rows): vectorizable inner loops with
//	              4/8/16-byte word moves for small blocks.
//	PlanRunList — irregular typemaps: a walk over the run list with a
//	              move class chosen per run.
//
// Uniform plans locate any packed offset in O(1) with div/mod instead of
// a binary search over the runs, so striped rendezvous fragments pay no
// per-fragment setup. Compiled plans are interned in a concurrent cache
// keyed by a canonical layout hash: structurally identical types (Dup,
// Unmarshal reconstruction, independently built equivalents) share one
// plan and are never recompiled. Each Type additionally memoizes its plan
// pointer, so the pack hot path is a single atomic load — zero
// allocations after first use.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

	// Uniform geometry (PlanBlock, PlanStrided).
	base     int64 // offset of the first block within an element
	blockLen int64 // bytes per block
	nblocks  int64 // blocks per element
	stride   int64 // byte distance between consecutive block starts

	// Canonical per-element run list (all kinds except PlanContig keep it
	// for region extraction; PlanRunList also packs with it).
	runs []Run
	pre  []int64 // packed-offset prefix of runs

	// prog is the compiled per-element program for the run-list kernels:
	// each run annotated with its move class, so small runs inline as
	// word moves instead of per-run memmove calls. wprog is the flattened
	// wide-move variant (see compileWide) used on all but the final
	// element of a whole-element batch.
	prog  []runStep
	wprog []wideStep

	// merge: the last run of element e ends exactly where the first run of
	// element e+1 begins, so regions coalesce across element boundaries
	// (always true when extent == size).
	merge bool
	// wide: the run-list pack kernel may use spilling wide moves — the
	// <=15-byte dst spill stays inside the element's packed image (a
	// compileWide guarantee) and the src overread is covered by the
	// element extent plus the exact-program final element.
	wide bool
	hash uint64
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

func (p *Plan) checkBuf(buf []byte, count int64) error {
	if count < 0 {
		return fmt.Errorf("ddt: negative count %d", count)
	}
	if need := p.Span(count); int64(len(buf)) < need {
		return fmt.Errorf("ddt: buffer of %d bytes cannot hold %d elements (%d bytes)", len(buf), count, need)
	}
	return nil
}

// --- compilation -------------------------------------------------------------

// Move classes for one run: selected once at compile time so the
// whole-element kernels replace per-run memmove calls with inlined word
// moves — the difference between a derived type and the constant-size
// copies a hand-written pack compiles to.
const (
	clsTiny   uint8 = iota // 1..3 bytes: byte loop
	clsMove4               // exactly 4 bytes
	clsMove8               // exactly 8 bytes
	clsMove16              // exactly 16 bytes
	clsDual4               // 5..7 bytes: two overlapping 4-byte moves
	clsDual8               // 9..15 bytes: two overlapping 8-byte moves
	clsWords               // 17..128 bytes: 8-byte word loop + overlap tail
	clsCopy                // >128 bytes: memmove wins
)

// runStep is one instruction of the compiled per-element program.
type runStep struct {
	off int64 // source offset within the element
	len int64
	cls uint8
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

func compileProg(runs []Run) []runStep {
	prog := make([]runStep, len(runs))
	for i, r := range runs {
		prog[i] = runStep{off: r.Off, len: r.Len, cls: moveClass(r.Len)}
	}
	return prog
}

// wideStep is one instruction of the flattened wide program: a move of
// class cls reading src (offset within the element) and writing dst
// (packed offset). A clsMove16 step may cover fewer than 16 payload
// bytes (len < 16): the spill is compiled in only when it stays inside
// the element's packed image, on positions later steps rewrite.
type wideStep struct {
	src, dst int64
	len      int64
	cls      uint8
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
func compileWide(runs []Run, size int64) []wideStep {
	var prog []wideStep
	w := int64(0)
	for _, r := range runs {
		if r.Len > 128 {
			prog = append(prog, wideStep{src: r.Off, dst: w, len: r.Len, cls: clsCopy})
			w += r.Len
			continue
		}
		k := int64(0)
		for ; k+16 <= r.Len; k += 16 {
			prog = append(prog, wideStep{src: r.Off + k, dst: w + k, len: 16, cls: clsMove16})
		}
		if t := r.Len - k; t > 0 {
			if w+k+16 <= size {
				prog = append(prog, wideStep{src: r.Off + k, dst: w + k, len: 16, cls: clsMove16})
			} else {
				prog = append(prog, wideStep{src: r.Off + k, dst: w + k, len: t, cls: moveClass(t)})
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

// computePrefix returns cumulative packed sizes of the runs: element i is
// the packed offset of run i within one element.
func computePrefix(runs []Run) []int64 {
	p := make([]int64, len(runs)+1)
	for i, r := range runs {
		p[i+1] = p[i] + r.Len
	}
	return p
}

// buildPlan selects the canonical form for (extent, ub, canonical runs).
func buildPlan(extent, ub int64, runs []Run) *Plan {
	var size int64
	for _, r := range runs {
		size += r.Len
	}
	p := &Plan{
		size:   size,
		extent: extent,
		ub:     ub,
		runs:   runs,
		pre:    computePrefix(runs),
	}
	switch {
	case len(runs) == 0:
		p.kind = PlanContig
	case len(runs) == 1 && runs[0].Off == 0 && size == extent:
		p.kind = PlanContig
	case len(runs) == 1:
		p.kind = PlanBlock
		p.base = runs[0].Off
		p.blockLen = runs[0].Len
		p.nblocks = 1
		p.stride = extent
	default:
		// Uniform when every run has the same length and the offsets form
		// an arithmetic sequence. Adjacent-in-sequence runs are already
		// coalesced, so a uniform stride never equals the block length.
		uniform := true
		bl := runs[0].Len
		stride := runs[1].Off - runs[0].Off
		for i := 1; i < len(runs); i++ {
			if runs[i].Len != bl || runs[i].Off-runs[i-1].Off != stride {
				uniform = false
				break
			}
		}
		if uniform {
			p.kind = PlanStrided
			p.base = runs[0].Off
			p.blockLen = bl
			p.nblocks = int64(len(runs))
			p.stride = stride
		} else {
			p.kind = PlanRunList
		}
	}
	if p.kind == PlanRunList {
		p.prog = compileProg(runs)
		// The tiled wide kernel needs >=16-byte spill headroom on both
		// sides and only pays off when a tile of elements stays
		// cache-resident: for large extents the run-major interchange
		// re-walks a huge source window once per program step, so those
		// layouts keep the element-major exact program.
		p.wide = size >= 16 && extent >= 16 && extent <= 4096
		if p.wide {
			p.wprog = compileWide(runs, size)
		}
	}
	if p.kind != PlanContig && len(runs) > 0 {
		last := runs[len(runs)-1]
		p.merge = runs[0].Off == 0 && last.Off+last.Len == extent
	}
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

// --- pack kernels ------------------------------------------------------------

// PackAt packs up to len(dst) bytes of the packed form of (src, count)
// starting at virtual packed offset off, returning the bytes produced and
// io.EOF exactly when the stream end was reached. The typemap interpreter
// in interp_test.go is the oracle for these semantics.
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
	var w int
	switch p.kind {
	case PlanContig:
		return copy(dst, src[off:]), nil
	case PlanBlock, PlanStrided:
		w = p.packAtUniform(src, count, off, dst)
	default:
		w = p.packAtRuns(src, count, off, dst)
	}
	if off+int64(w) == total {
		return w, io.EOF
	}
	return w, nil
}

// UnpackAt scatters the packed bytes in src at virtual packed offset off
// back into the memory layout of (dst, count).
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
	switch p.kind {
	case PlanContig:
		copy(dst[off:], src)
	case PlanBlock, PlanStrided:
		p.unpackAtUniform(dst, count, off, src)
	default:
		p.unpackAtRuns(dst, count, off, src)
	}
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

// packAtUniform is the PlanBlock/PlanStrided kernel: O(1) offset location
// (div/mod), then whole blocks through specialized word-move loops. dst is
// pre-trimmed to the remaining stream, so the kernel always fills it.
func (p *Plan) packAtUniform(src []byte, count int64, off int64, dst []byte) int {
	L := p.blockLen
	elem := off / p.size
	within := off - elem*p.size
	bi := within / L
	rem := within - bi*L
	w := 0
	if rem > 0 {
		// Resume mid-block: finish the split block first.
		so := elem*p.extent + p.base + bi*p.stride + rem
		n := copy(dst, src[so:so+(L-rem)])
		w += n
		if int64(n) < L-rem {
			return w
		}
		bi++
		if bi == p.nblocks {
			bi, elem = 0, elem+1
		}
	}
	if nb := int64(len(dst)-w) / L; nb > 0 {
		var n int
		n, elem, bi = p.packWholeBlocks(dst[w:], src, elem, bi, nb)
		w += n
	}
	if w < len(dst) && elem < count {
		// Trailing partial block.
		so := elem*p.extent + p.base + bi*p.stride
		w += copy(dst[w:], src[so:so+L])
	}
	return w
}

func (p *Plan) unpackAtUniform(dst []byte, count int64, off int64, src []byte) {
	L := p.blockLen
	elem := off / p.size
	within := off - elem*p.size
	bi := within / L
	rem := within - bi*L
	r := 0
	if rem > 0 {
		do := elem*p.extent + p.base + bi*p.stride + rem
		n := copy(dst[do:do+(L-rem)], src)
		r += n
		if int64(n) < L-rem {
			return
		}
		bi++
		if bi == p.nblocks {
			bi, elem = 0, elem+1
		}
	}
	if nb := int64(len(src)-r) / L; nb > 0 {
		var n int
		n, elem, bi = p.unpackWholeBlocks(dst, src[r:], elem, bi, nb)
		r += n
	}
	if r < len(src) && elem < count {
		do := elem*p.extent + p.base + bi*p.stride
		copy(dst[do:do+L], src[r:])
	}
}

// packWholeBlocks copies nb whole blocks starting at (elem, bi) into dst
// and returns the bytes moved plus the advanced cursor. Blocks of 4/8/16
// bytes (int32/float64/complex128 and friends) move as direct word loads;
// other 8-byte multiples up to 128 move as unrolled word loops; anything
// else falls back to copy.
func (p *Plan) packWholeBlocks(dst, src []byte, elem, bi, nb int64) (int, int64, int64) {
	L, stride := p.blockLen, p.stride
	w := int64(0)
	if p.nblocks == 1 {
		// One block per element: the whole message is a single arithmetic
		// sequence at stride extent.
		so := elem*p.extent + p.base
		switch {
		case L == 4:
			for ; nb > 0; nb-- {
				*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[so:])
				w += 4
				so += p.extent
			}
		case L == 8:
			for ; nb > 0; nb-- {
				*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[so:])
				w += 8
				so += p.extent
			}
		case L == 16:
			for ; nb > 0; nb-- {
				*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[so:])
				w += 16
				so += p.extent
			}
		case L%8 == 0 && L <= 128:
			for ; nb > 0; nb-- {
				for k := int64(0); k < L; k += 8 {
					*(*[8]byte)(dst[w+k:]) = *(*[8]byte)(src[so+k:])
				}
				w += L
				so += p.extent
			}
		default:
			for ; nb > 0; nb-- {
				copy(dst[w:w+L], src[so:so+L])
				w += L
				so += p.extent
			}
		}
		return int(w), (so - p.base) / p.extent, 0
	}
	for nb > 0 {
		so := elem*p.extent + p.base + bi*stride
		m := p.nblocks - bi
		if m > nb {
			m = nb
		}
		nb -= m
		bi += m
		switch {
		case L == 4:
			for ; m > 0; m-- {
				*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[so:])
				w += 4
				so += stride
			}
		case L == 8:
			for ; m > 0; m-- {
				*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[so:])
				w += 8
				so += stride
			}
		case L == 16:
			for ; m > 0; m-- {
				*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[so:])
				w += 16
				so += stride
			}
		case L%8 == 0 && L <= 128:
			for ; m > 0; m-- {
				for k := int64(0); k < L; k += 8 {
					*(*[8]byte)(dst[w+k:]) = *(*[8]byte)(src[so+k:])
				}
				w += L
				so += stride
			}
		default:
			for ; m > 0; m-- {
				copy(dst[w:w+L], src[so:so+L])
				w += L
				so += stride
			}
		}
		if bi == p.nblocks {
			bi, elem = 0, elem+1
		}
	}
	return int(w), elem, bi
}

func (p *Plan) unpackWholeBlocks(dst, src []byte, elem, bi, nb int64) (int, int64, int64) {
	L, stride := p.blockLen, p.stride
	r := int64(0)
	if p.nblocks == 1 {
		do := elem*p.extent + p.base
		switch {
		case L == 4:
			for ; nb > 0; nb-- {
				*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[r:])
				r += 4
				do += p.extent
			}
		case L == 8:
			for ; nb > 0; nb-- {
				*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[r:])
				r += 8
				do += p.extent
			}
		case L == 16:
			for ; nb > 0; nb-- {
				*(*[16]byte)(dst[do:]) = *(*[16]byte)(src[r:])
				r += 16
				do += p.extent
			}
		case L%8 == 0 && L <= 128:
			for ; nb > 0; nb-- {
				for k := int64(0); k < L; k += 8 {
					*(*[8]byte)(dst[do+k:]) = *(*[8]byte)(src[r+k:])
				}
				r += L
				do += p.extent
			}
		default:
			for ; nb > 0; nb-- {
				copy(dst[do:do+L], src[r:r+L])
				r += L
				do += p.extent
			}
		}
		return int(r), (do - p.base) / p.extent, 0
	}
	for nb > 0 {
		do := elem*p.extent + p.base + bi*stride
		m := p.nblocks - bi
		if m > nb {
			m = nb
		}
		nb -= m
		bi += m
		switch {
		case L == 4:
			for ; m > 0; m-- {
				*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[r:])
				r += 4
				do += stride
			}
		case L == 8:
			for ; m > 0; m-- {
				*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[r:])
				r += 8
				do += stride
			}
		case L == 16:
			for ; m > 0; m-- {
				*(*[16]byte)(dst[do:]) = *(*[16]byte)(src[r:])
				r += 16
				do += stride
			}
		case L%8 == 0 && L <= 128:
			for ; m > 0; m-- {
				for k := int64(0); k < L; k += 8 {
					*(*[8]byte)(dst[do+k:]) = *(*[8]byte)(src[r+k:])
				}
				r += L
				do += stride
			}
		default:
			for ; m > 0; m-- {
				copy(dst[do:do+L], src[r:r+L])
				r += L
				do += stride
			}
		}
		if bi == p.nblocks {
			bi, elem = 0, elem+1
		}
	}
	return int(r), elem, bi
}

// packAtRuns is the PlanRunList kernel: a partial leading element walks
// the run list with a runOff carry (streaming resume), whole elements go
// through the class-specialized program, and a partial trailing element
// falls back to the careful walk.
func (p *Plan) packAtRuns(src []byte, count int64, off int64, dst []byte) int {
	elem := off / p.size
	within := off - elem*p.size
	w := 0
	if within > 0 {
		w = p.packElemTail(dst, src, elem, within)
		if within+int64(w) < p.size {
			return w // dst exhausted mid-element
		}
		elem++
	}
	if nE := int64(len(dst)-w) / p.size; nE > 0 {
		if rem := count - elem; nE > rem {
			nE = rem
		}
		w += p.packRunsWhole(dst[w:], src, elem, nE)
		elem += nE
	}
	if w < len(dst) && elem < count {
		w += p.packElemTail(dst[w:], src, elem, 0)
	}
	return w
}

// packElemTail packs element elem from packed offset within to the end
// of the element (or until dst fills), returning the bytes produced.
func (p *Plan) packElemTail(dst, src []byte, elem, within int64) int {
	pre := p.pre
	ri := sort.Search(len(p.runs), func(i int) bool { return pre[i+1] > within })
	runOff := within - pre[ri]
	base := elem * p.extent
	w := 0
	for ; ri < len(p.runs) && w < len(dst); ri++ {
		r := p.runs[ri]
		w += copy(dst[w:], src[base+r.Off+runOff:base+r.Off+r.Len])
		runOff = 0
	}
	return w
}

// packRunsWhole runs the compiled program over n complete elements. dst
// must hold at least n elements of packed data. All but the last element
// go through the wide program when the layout permits, executed
// run-major over tiles of elements: for each program step, a tight loop
// over the tile with constant source/dest strides — one move shape per
// inner loop, the program walk amortized across the tile. Safe in this
// order because compileWide confines every write to its own element;
// the exact final element covers the spill READS (up to 15 bytes past a
// run), which must not run off the end of the source buffer.
func (p *Plan) packRunsWhole(dst, src []byte, elem, n int64) int {
	w := int64(0)
	last := elem + n
	if p.wide && n > 1 {
		const tile = 64
		ext, sz := p.extent, p.size
		nw := n - 1 // final element runs the exact program below
		for t0 := int64(0); t0 < nw; t0 += tile {
			nt := nw - t0
			if nt > tile {
				nt = tile
			}
			sbase := (elem + t0) * ext
			dbase := t0 * sz
			for _, m := range p.wprog {
				so := sbase + m.src
				do := dbase + m.dst
				L := m.len
				switch m.cls {
				case clsMove16:
					for e := int64(0); e < nt; e++ {
						*(*[16]byte)(dst[do:]) = *(*[16]byte)(src[so:])
						so += ext
						do += sz
					}
				case clsMove8:
					for e := int64(0); e < nt; e++ {
						*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[so:])
						so += ext
						do += sz
					}
				case clsMove4:
					for e := int64(0); e < nt; e++ {
						*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[so:])
						so += ext
						do += sz
					}
				case clsDual8:
					for e := int64(0); e < nt; e++ {
						*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[so:])
						*(*[8]byte)(dst[do+L-8:]) = *(*[8]byte)(src[so+L-8:])
						so += ext
						do += sz
					}
				case clsDual4:
					for e := int64(0); e < nt; e++ {
						*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[so:])
						*(*[4]byte)(dst[do+L-4:]) = *(*[4]byte)(src[so+L-4:])
						so += ext
						do += sz
					}
				case clsTiny:
					for e := int64(0); e < nt; e++ {
						for k := int64(0); k < L; k++ {
							dst[do+k] = src[so+k]
						}
						so += ext
						do += sz
					}
				default: // clsCopy
					for e := int64(0); e < nt; e++ {
						copy(dst[do:do+L], src[so:so+L])
						so += ext
						do += sz
					}
				}
			}
		}
		w = nw * sz
		elem = last - 1
	}
	for e := elem; e < last; e++ {
		base := e * p.extent
		for _, s := range p.prog {
			so := base + s.off
			L := s.len
			switch s.cls {
			case clsMove4:
				*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[so:])
			case clsMove8:
				*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[so:])
			case clsMove16:
				*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[so:])
			case clsDual4:
				*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[so:])
				*(*[4]byte)(dst[w+L-4:]) = *(*[4]byte)(src[so+L-4:])
			case clsDual8:
				*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[so:])
				*(*[8]byte)(dst[w+L-8:]) = *(*[8]byte)(src[so+L-8:])
			case clsWords:
				k := int64(0)
				for ; k+8 <= L; k += 8 {
					*(*[8]byte)(dst[w+k:]) = *(*[8]byte)(src[so+k:])
				}
				if k < L {
					*(*[8]byte)(dst[w+L-8:]) = *(*[8]byte)(src[so+L-8:])
				}
			case clsTiny:
				for k := int64(0); k < L; k++ {
					dst[w+k] = src[so+k]
				}
			default:
				copy(dst[w:w+L], src[so:so+L])
			}
			w += L
		}
	}
	return int(w)
}

func (p *Plan) unpackAtRuns(dst []byte, count int64, off int64, src []byte) {
	elem := off / p.size
	within := off - elem*p.size
	r := 0
	if within > 0 {
		r = p.unpackElemTail(dst, src, elem, within)
		if within+int64(r) < p.size {
			return // src exhausted mid-element
		}
		elem++
	}
	if nE := int64(len(src)-r) / p.size; nE > 0 {
		if rem := count - elem; nE > rem {
			nE = rem
		}
		r += p.unpackRunsWhole(dst, src[r:], elem, nE)
		elem += nE
	}
	if r < len(src) && elem < count {
		p.unpackElemTail(dst, src[r:], elem, 0)
	}
}

func (p *Plan) unpackElemTail(dst, src []byte, elem, within int64) int {
	pre := p.pre
	ri := sort.Search(len(p.runs), func(i int) bool { return pre[i+1] > within })
	runOff := within - pre[ri]
	base := elem * p.extent
	r := 0
	for ; ri < len(p.runs) && r < len(src); ri++ {
		run := p.runs[ri]
		r += copy(dst[base+run.Off+runOff:base+run.Off+run.Len], src[r:])
		runOff = 0
	}
	return r
}

func (p *Plan) unpackRunsWhole(dst, src []byte, elem, n int64) int {
	r := int64(0)
	for e := elem; e < elem+n; e++ {
		base := e * p.extent
		for _, s := range p.prog {
			do := base + s.off
			L := s.len
			switch s.cls {
			case clsMove4:
				*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[r:])
			case clsMove8:
				*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[r:])
			case clsMove16:
				*(*[16]byte)(dst[do:]) = *(*[16]byte)(src[r:])
			case clsDual4:
				*(*[4]byte)(dst[do:]) = *(*[4]byte)(src[r:])
				*(*[4]byte)(dst[do+L-4:]) = *(*[4]byte)(src[r+L-4:])
			case clsDual8:
				*(*[8]byte)(dst[do:]) = *(*[8]byte)(src[r:])
				*(*[8]byte)(dst[do+L-8:]) = *(*[8]byte)(src[r+L-8:])
			case clsWords:
				k := int64(0)
				for ; k+8 <= L; k += 8 {
					*(*[8]byte)(dst[do+k:]) = *(*[8]byte)(src[r+k:])
				}
				if k < L {
					*(*[8]byte)(dst[do+L-8:]) = *(*[8]byte)(src[r+L-8:])
				}
			case clsTiny:
				for k := int64(0); k < L; k++ {
					dst[do+k] = src[r+k]
				}
			default:
				copy(dst[do:do+L], src[r:r+L])
			}
			r += L
		}
	}
	return int(r)
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
