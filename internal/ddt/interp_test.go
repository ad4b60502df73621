package ddt

import (
	"fmt"
	"io"
	"sort"
)

// The typemap interpreter: the engine derived datatypes ran on before plans
// were compiled (plan.go). It is kept as test code — the oracle the
// differential tests and FuzzPlanDifferential hold every compiled kernel
// to, byte for byte, and the baseline BenchmarkAblationDDTPlan measures
// the plans against.

// checkBuf validates that buf can hold count elements.
func (t *Type) checkBuf(buf []byte, count int64) error {
	if count < 0 {
		return fmt.Errorf("ddt: negative count %d", count)
	}
	if need := t.Span(count); int64(len(buf)) < need {
		return fmt.Errorf("ddt: buffer of %d bytes cannot hold %d x %s (%d bytes)", len(buf), count, t.name, need)
	}
	return nil
}

// packAtInterp is the pre-plan engine: a typemap walk that binary-searches
// the run containing off and carries a runOff across fragment boundaries.
func (t *Type) packAtInterp(src []byte, count int64, off int64, dst []byte) (int, error) {
	total := t.PackedSize(count)
	if off < 0 || off > total {
		return 0, fmt.Errorf("ddt: pack offset %d out of [0,%d]", off, total)
	}
	if err := t.checkBuf(src, count); err != nil {
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
	if t.contig {
		n := copy(dst, src[off:])
		return n, nil
	}
	pre := computePrefix(t.runs)
	elem := off / t.size
	within := off % t.size
	ri := sort.Search(len(t.runs), func(i int) bool { return pre[i+1] > within }) // run containing `within`
	runOff := within - pre[ri]
	w := 0
	for elem < count && w < len(dst) {
		base := elem * t.extent
		for ; ri < len(t.runs) && w < len(dst); ri++ {
			r := t.runs[ri]
			n := copy(dst[w:], src[base+r.Off+runOff:base+r.Off+r.Len])
			w += n
			if int64(n) < r.Len-runOff {
				runOff += int64(n)
				return w, nil
			}
			runOff = 0
		}
		if ri == len(t.runs) {
			ri = 0
			elem++
		}
	}
	if off+int64(w) == total {
		return w, io.EOF
	}
	return w, nil
}

// unpackAtInterp is the interpreter dual of packAtInterp.
func (t *Type) unpackAtInterp(dst []byte, count int64, off int64, src []byte) error {
	total := t.PackedSize(count)
	if off < 0 || off+int64(len(src)) > total {
		return fmt.Errorf("ddt: unpack range [%d,%d) out of [0,%d]", off, off+int64(len(src)), total)
	}
	if err := t.checkBuf(dst, count); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	if t.contig {
		copy(dst[off:], src)
		return nil
	}
	pre := computePrefix(t.runs)
	elem := off / t.size
	within := off % t.size
	ri := sort.Search(len(t.runs), func(i int) bool { return pre[i+1] > within })
	runOff := within - pre[ri]
	r := 0
	for elem < count && r < len(src) {
		base := elem * t.extent
		for ; ri < len(t.runs) && r < len(src); ri++ {
			run := t.runs[ri]
			n := copy(dst[base+run.Off+runOff:base+run.Off+run.Len], src[r:])
			r += n
			if int64(n) < run.Len-runOff {
				return nil // src exhausted mid-run
			}
			runOff = 0
		}
		if ri == len(t.runs) {
			ri = 0
			elem++
		}
	}
	return nil
}

// packInterp is the one-shot interpreter pack (ablation baseline).
func (t *Type) packInterp(src []byte, count int64, dst []byte) (int64, error) {
	total := t.PackedSize(count)
	if int64(len(dst)) < total {
		return 0, fmt.Errorf("ddt: pack destination too small (%d < %d)", len(dst), total)
	}
	n, err := t.packAtInterp(src, count, 0, dst[:total])
	if err == io.EOF {
		err = nil
	}
	if err == nil && int64(n) != total {
		err = fmt.Errorf("ddt: short pack (%d of %d bytes)", n, total)
	}
	return int64(n), err
}

// regionsInterp is the pre-plan region enumeration: one region per run
// per element, no cross-element coalescing, fresh allocation per call.
func (t *Type) regionsInterp(buf []byte, count int64) ([][]byte, error) {
	if err := t.checkBuf(buf, count); err != nil {
		return nil, err
	}
	if t.contig {
		return [][]byte{buf[:t.PackedSize(count)]}, nil
	}
	regions := make([][]byte, 0, int(count)*len(t.runs))
	for e := int64(0); e < count; e++ {
		base := e * t.extent
		for _, r := range t.runs {
			regions = append(regions, buf[base+r.Off:base+r.Off+r.Len])
		}
	}
	return regions, nil
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
