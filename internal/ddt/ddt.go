// Package ddt implements a classic MPI derived-datatype engine over
// C-layout byte images: typemaps built from predefined types with the
// standard constructors (contiguous, vector, hvector, indexed, hindexed,
// indexed_block, struct, subarray, resized), flattened into byte runs, and
// a pack/unpack engine that walks those runs.
//
// This package is the reproduction's stand-in for the Open MPI / RSMPI
// datatype engine the paper benchmarks against. Its performance character
// is deliberately faithful: a type that flattens to one contiguous run per
// extent (no gaps) packs as a single large copy, while a type with interior
// gaps (like the paper's struct-simple, Listing 7) degenerates to small
// per-run copies — the exact effect behind the paper's Figure 5 vs.
// Figure 6 contrast.
//
// Buffers are []byte images laid out exactly as a C compiler would lay out
// the corresponding structs (the paper's #[repr(C)] Rust types); see
// package layout for helpers that build such images.
package ddt

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Run is one contiguous byte range of a type's flattened typemap, relative
// to the element base address.
type Run struct {
	Off int64
	Len int64
}

// Type is an immutable derived datatype.
type Type struct {
	name   string
	size   int64 // packed bytes per element (sum of run lengths)
	extent int64 // distance between consecutive elements in a buffer
	ub     int64 // upper bound: max(run.Off+run.Len), or explicit via Resized
	runs   []Run // in typemap order (pack order), adjacency-coalesced
	contig bool  // single run at offset 0 with size == extent

	// plan memoizes the compiled pack/unpack program (see plan.go): one
	// atomic load on the hot path, filled lazily on first use.
	plan atomic.Pointer[Plan]
}

// Predefined base types (sizes follow the C ABI the paper's structs use).
var (
	Byte       = predefined("byte", 1)
	Int8       = predefined("int8", 1)
	Int16      = predefined("int16", 2)
	Int32      = predefined("int32", 4)
	Int64      = predefined("int64", 8)
	Uint64     = predefined("uint64", 8)
	Float32    = predefined("float32", 4)
	Float64    = predefined("float64", 8)
	Complex128 = predefined("complex128", 16)
)

func predefined(name string, size int64) *Type {
	return &Type{
		name:   name,
		size:   size,
		extent: size,
		ub:     size,
		runs:   []Run{{0, size}},
		contig: true,
	}
}

// Name returns a debug name for the type.
func (t *Type) Name() string { return t.name }

// Size returns the number of packed data bytes per element.
func (t *Type) Size() int64 { return t.size }

// Extent returns the spacing between consecutive elements of this type in
// an application buffer.
func (t *Type) Extent() int64 { return t.extent }

// Runs returns the flattened per-element typemap in pack order. The slice
// must not be modified.
func (t *Type) Runs() []Run { return t.runs }

// Contig reports whether the type is fully contiguous (no gaps, no
// reordering): such types pack with a single copy regardless of count.
func (t *Type) Contig() bool { return t.contig }

// NumRuns returns the number of contiguous runs per element after
// coalescing.
func (t *Type) NumRuns() int { return len(t.runs) }

// Span returns the number of buffer bytes count elements occupy.
func (t *Type) Span(count int64) int64 {
	if count <= 0 {
		return 0
	}
	return (count-1)*t.extent + t.ub
}

// PackedSize returns the packed byte size of count elements.
func (t *Type) PackedSize(count int64) int64 { return count * t.size }

// Dup mirrors MPI_Type_dup: a new handle with identical transfer
// semantics. The duplicate shares the immutable run list and — through
// the plan cache — the compiled plan, so duplicating never recompiles.
func (t *Type) Dup() *Type {
	return &Type{
		name:   t.name,
		size:   t.size,
		extent: t.extent,
		ub:     t.ub,
		runs:   t.runs,
		contig: t.contig,
	}
}

// ErrType reports invalid constructor arguments.
var ErrType = errors.New("ddt: invalid type construction")

func ctorErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrType, fmt.Sprintf(format, args...))
}

// finalize derives size/ub/contig from runs and coalesces adjacent-in-
// sequence runs. Coalescing never reorders: pack order is semantic.
func finalize(name string, extent int64, runs []Run) (*Type, error) {
	co := make([]Run, 0, len(runs))
	var size int64
	var ub int64
	for _, r := range runs {
		if r.Len == 0 {
			continue
		}
		if r.Len < 0 || r.Off < 0 {
			return nil, ctorErr("%s: negative run {%d,%d}", name, r.Off, r.Len)
		}
		size += r.Len
		if end := r.Off + r.Len; end > ub {
			ub = end
		}
		if n := len(co); n > 0 && co[n-1].Off+co[n-1].Len == r.Off {
			co[n-1].Len += r.Len
			continue
		}
		co = append(co, r)
	}
	if extent < ub {
		extent = ub
	}
	t := &Type{
		name:   name,
		size:   size,
		extent: extent,
		ub:     ub,
		runs:   co,
	}
	t.contig = len(co) == 1 && co[0].Off == 0 && t.size == t.extent
	if len(co) == 0 {
		// Zero-size types are legal (e.g. empty struct); treat as contig.
		t.contig = true
	}
	return t, nil
}
