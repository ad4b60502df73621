package ddt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements datatype marshalling and equivalence — the
// facility studied by Kimpe, Goodell and Ross ("MPI datatype marshalling:
// a case study in datatype equivalence", EuroMPI'10), which the paper
// cites as prior art for moving datatype descriptions between processes.
// A marshalled type can be reconstructed on another rank (e.g. so a
// receiver can build the sender's layout), and Equal decides whether two
// types describe the same transfer.

// Equal reports whether two types are transfer-equivalent: same packed
// size, same extent, and the same flattened typemap (run sequence). Types
// built through different constructor paths compare equal when they move
// the same bytes in the same order — the useful notion of equivalence for
// communication matching.
func Equal(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.size != b.size || a.extent != b.extent || len(a.runs) != len(b.runs) {
		return false
	}
	for i := range a.runs {
		if a.runs[i] != b.runs[i] {
			return false
		}
	}
	return true
}

// marshal wire format:
//
//	magic "DDT1" | size i64 | extent i64 | ub i64 | nameLen u32 | name |
//	nruns u32 | (off i64, len i64)*
const marshalMagic = "DDT1"

// Marshal serializes the type's flattened description. The constructor
// tree is not preserved — only the transfer semantics — which is exactly
// what a remote peer needs to pack or unpack compatible buffers.
func (t *Type) Marshal() []byte {
	out := make([]byte, 0, 4+8*3+4+len(t.name)+4+16*len(t.runs))
	out = append(out, marshalMagic...)
	var b8 [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b8[:], uint64(v))
		out = append(out, b8[:]...)
	}
	put(t.size)
	put(t.extent)
	put(t.ub)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(t.name)))
	out = append(out, b4[:]...)
	out = append(out, t.name...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(t.runs)))
	out = append(out, b4[:]...)
	for _, r := range t.runs {
		put(r.Off)
		put(r.Len)
	}
	return out
}

// ErrMarshal reports a corrupt marshalled type description.
var ErrMarshal = errors.New("ddt: invalid marshalled type")

// Unmarshal reconstructs a type from Marshal output.
func Unmarshal(data []byte) (*Type, error) {
	at := 0
	take := func(n int) ([]byte, error) {
		if at+n > len(data) {
			return nil, ErrMarshal
		}
		b := data[at : at+n]
		at += n
		return b, nil
	}
	magic, err := take(4)
	if err != nil || string(magic) != marshalMagic {
		return nil, ErrMarshal
	}
	geti := func() (int64, error) {
		b, err := take(8)
		if err != nil {
			return 0, err
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	}
	size, err := geti()
	if err != nil {
		return nil, err
	}
	extent, err := geti()
	if err != nil {
		return nil, err
	}
	ub, err := geti()
	if err != nil {
		return nil, err
	}
	nb, err := take(4)
	if err != nil {
		return nil, err
	}
	nameBytes, err := take(int(binary.LittleEndian.Uint32(nb)))
	if err != nil {
		return nil, err
	}
	rb, err := take(4)
	if err != nil {
		return nil, err
	}
	nruns := int(binary.LittleEndian.Uint32(rb))
	if nruns < 0 || nruns > 1<<24 {
		return nil, ErrMarshal
	}
	runs := make([]Run, nruns)
	var total int64
	for i := range runs {
		off, err := geti()
		if err != nil {
			return nil, err
		}
		length, err := geti()
		if err != nil {
			return nil, err
		}
		// A run end or a size that wraps int64 would pass the bounds
		// checks below and hand the kernels an offset outside the buffer.
		if off < 0 || length <= 0 || off > math.MaxInt64-length || total > math.MaxInt64-length {
			return nil, fmt.Errorf("%w: run %d = {%d,%d}", ErrMarshal, i, off, length)
		}
		runs[i] = Run{off, length}
		total += length
	}
	if at != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMarshal, len(data)-at)
	}
	if total != size {
		return nil, fmt.Errorf("%w: runs sum to %d, size is %d", ErrMarshal, total, size)
	}
	var maxEnd int64
	for _, r := range runs {
		if end := r.Off + r.Len; end > maxEnd {
			maxEnd = end
		}
	}
	if ub != maxEnd || extent < ub {
		return nil, fmt.Errorf("%w: bounds (ub %d, extent %d, max end %d)", ErrMarshal, ub, extent, maxEnd)
	}
	t := &Type{
		name:   string(nameBytes),
		size:   size,
		extent: extent,
		ub:     ub,
		runs:   runs,
	}
	t.contig = len(runs) == 1 && runs[0].Off == 0 && t.size == t.extent
	if len(runs) == 0 {
		t.contig = true
	}
	return t, nil
}
