package ddt

import (
	"bytes"
	"testing"
	"time"
)

// Träff-style self-consistency check: for every canonical plan shape the
// compiled plan must pack the same bytes as the loop a user would
// realistically write for that exact layout. That is the assertion. The
// guideline's other half — the derived path is not slower than the
// manual one — is a wall-clock ratio, which a 2-vCPU host read 5 % either
// way from one run to the next: it is logged here for the reader and
// judged where interleaved trials and quartiles exist, in bench/ (see
// DESIGN.md, "Self-consistency guidelines").

type consistencyCase struct {
	name   string
	typ    *Type
	count  int64
	manual func(dst, src []byte) // the hand-written equivalent
}

func consistencyCases(t testing.TB) []consistencyCase {
	mk := func(typ *Type, err error) *Type {
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	// contig: 4 MiB of float64 — manual pack is a single copy.
	contig := mk(Contiguous(1024, Float64))
	// 2D-strided: one column of a 1024x2 float64 matrix per element
	// (blocklen 1, stride 2), 4 MiB packed total — the classic strided
	// gather. Manual pack is the row loop everyone writes.
	strided := mk(Vector(1024, 1, 2, Float64))
	// struct-of-fields: the paper's struct-simple (3 int32 + gap +
	// float64). Manual pack copies the two fields per element.
	strct := mk(Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64}))
	// irregular: indexed gather with varying block lengths — manual pack
	// walks an offset table.
	bls := make([]int, 512)
	ds := make([]int, 512)
	at := 0
	for i := range bls {
		bls[i] = 1 + i%3
		ds[i] = at
		at += bls[i] + 1 + i%2
	}
	irregular := mk(Indexed(bls, ds, Float64))

	return []consistencyCase{
		{
			name: "contig", typ: contig, count: 512,
			manual: func(dst, src []byte) { copy(dst, src) },
		},
		{
			name: "strided2d", typ: strided, count: 512,
			manual: func(dst, src []byte) {
				// One element spans 1023 full 16-byte rows plus the final
				// 8-byte block (the vector extent).
				extent := int(strided.Extent())
				w := 0
				for e := 0; e < 512; e++ {
					base := e * extent
					for r := 0; r < 1024; r++ {
						o := base + r*16
						copy(dst[w:w+8], src[o:o+8])
						w += 8
					}
				}
			},
		},
		{
			name: "struct", typ: strct, count: 65536,
			manual: func(dst, src []byte) {
				w := 0
				for e := 0; e < 65536; e++ {
					base := e * 24
					copy(dst[w:w+12], src[base:base+12])
					copy(dst[w+12:w+20], src[base+16:base+24])
					w += 20
				}
			},
		},
		{
			name: "irregular", typ: irregular, count: 64,
			manual: func(dst, src []byte) {
				runs := irregular.Runs()
				extent := int(irregular.Extent())
				w := 0
				for e := 0; e < 64; e++ {
					base := e * extent
					for _, r := range runs {
						o := base + int(r.Off)
						n := int(r.Len)
						copy(dst[w:w+n], src[o:o+n])
						w += n
					}
				}
			},
		},
	}
}

// bestOf times fn reps times and returns the minimum of n trials.
func bestOf(n, reps int, fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		for j := 0; j < reps; j++ {
			fn()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func TestPlanSelfConsistencyGate(t *testing.T) {
	const (
		trials = 5
		reps   = 6
	)
	for _, c := range consistencyCases(t) {
		src := fill(c.typ.Span(c.count))
		packed := c.typ.PackedSize(c.count)
		dst := make([]byte, packed)
		dstManual := make([]byte, packed)
		c.manual(dstManual, src)
		if _, err := c.typ.Pack(src, c.count, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dstManual, dst) {
			t.Fatalf("%s: manual and derived packs differ", c.name)
		}
		if testing.Short() {
			continue
		}
		// Both variants pack into the same destination so alignment and
		// page state cannot bias the comparison, and they interleave trial
		// by trial so drift (frequency scaling, neighbors on a shared box)
		// hits both evenly.
		manual := time.Duration(1<<62 - 1)
		derived := manual
		for trial := 0; trial < trials; trial++ {
			if d := bestOf(1, reps, func() { c.manual(dst, src) }); d < manual {
				manual = d
			}
			if d := bestOf(1, reps, func() {
				if _, err := c.typ.Pack(src, c.count, dst); err != nil {
					t.Fatal(err)
				}
			}); d < derived {
				derived = d
			}
		}
		t.Logf("%s: manual %v, derived %v, derived/manual throughput %.2fx",
			c.name, manual, derived, float64(manual)/float64(derived))
	}
}
