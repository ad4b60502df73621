package workloads

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"mpicd/internal/core"
	"mpicd/internal/layout"
)

// dvHead builds a double-vec head from raw words: the count, then the
// lengths, with no check that they agree.
func dvHead(words ...int64) []byte {
	h := make([]byte, 8*len(words))
	for i, w := range words {
		layout.PutI64(h, 8*i, w)
	}
	return h
}

// rawDoubleVec is a send-only custom handler that puts an arbitrary
// double-vec head on the wire, then tail bytes as one region.
type rawDoubleVec struct{ head, tail []byte }

func (rawDoubleVec) State(any, Count) (any, error) { return nil, nil }
func (rawDoubleVec) FreeState(any) error           { return nil }
func (h rawDoubleVec) PackedSize(_, _ any, _ Count) (Count, error) {
	return Count(len(h.head)), nil
}
func (h rawDoubleVec) Pack(_, _ any, _, off Count, dst []byte) (Count, error) {
	return Count(copy(dst, h.head[off:])), nil
}
func (rawDoubleVec) Unpack(_, _ any, _, _ Count, _ []byte) error { return errors.New("send only") }
func (h rawDoubleVec) RegionCount(_, _ any, _ Count) (Count, error) {
	return Count(min(len(h.tail), 1)), nil
}
func (h rawDoubleVec) Regions(_, _ any, _ Count, regions [][]byte) error {
	copy(regions, [][]byte{h.tail})
	return nil
}

// TestDoubleVecReceiveHeads: a receive into a buffer that already holds
// sub-vectors ends up holding exactly what the head names — an empty
// double-vec included — and a corrupt head is an error of the receive,
// never a panic on the worker that unpacks it. Every head is fed to the
// handler directly and, as the packed part of a real message, through a
// receive.
func TestDoubleVecReceiveHeads(t *testing.T) {
	for _, c := range []struct {
		name string
		head []byte
		want []int64 // lengths; nil: an error
		err  string
	}{
		{"empty", dvHead(0), []int64{}, ""},
		{"three", dvHead(3, 0, 5, 1), []int64{0, 5, 1}, ""},
		{"negative-count", dvHead(-1), nil, "count"},
		{"negative-length", dvHead(2, 4, -3), nil, "length"},
		{"count-overflows-head-size", dvHead(math.MaxInt64), nil, "count"},
		{"count-wraps-to-small-head", dvHead(1<<61-1, 0), nil, "count"},
		{"length-past-limit", dvHead(1, dvMaxBytes+1), nil, "length"},
		{"lengths-sum-past-limit", dvHead(2, dvMaxBytes, 1), nil, "length"},
		{"head-past-its-count", dvHead(1, 2, 3), nil, "runs past"},
		{"short-head", dvHead(2, 1), nil, "cut short"},
	} {
		t.Run(c.name+"/handler", func(t *testing.T) {
			out := [][]byte{[]byte("stale")}
			h := doubleVecHandler{}
			st, err := h.State(&out, 1)
			if err != nil {
				t.Fatal(err)
			}
			err = h.Unpack(st, &out, 1, 0, c.head)
			if err == nil {
				// The binding asks for the regions of a head that ended.
				var n Count
				if n, err = h.RegionCount(st, &out, 1); err == nil && c.want == nil {
					err = h.Regions(st, &out, 1, make([][]byte, n))
				}
			}
			checkHeadOutcome(t, c.want, c.err, out, err)
		})
		t.Run(c.name+"/recv", func(t *testing.T) {
			out := [][]byte{[]byte("stale")}
			var tail []byte
			for _, l := range c.want {
				tail = append(tail, bytes.Repeat([]byte{byte(l)}, int(l))...)
			}
			var got error
			run2(t,
				func(cm *core.Comm) error {
					return cm.Send(nil, 1, core.TypeCreateCustom(rawDoubleVec{c.head, tail}), 1, 4)
				},
				func(cm *core.Comm) error {
					_, got = cm.Recv(&out, 1, DoubleVecCustom(), 0, 4)
					return nil
				})
			checkHeadOutcome(t, c.want, c.err, out, got)
			for i, l := range c.want {
				if !bytes.Equal(out[i], bytes.Repeat([]byte{byte(l)}, int(l))) {
					t.Fatalf("sub-vector %d holds %v", i, out[i])
				}
			}
		})
	}
}

func checkHeadOutcome(t *testing.T, want []int64, wantErr string, out [][]byte, err error) {
	t.Helper()
	if want == nil {
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("err = %v, want one mentioning %q", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || len(out) != len(want) {
		t.Fatalf("received %d sub-vectors (nil %v), want %d", len(out), out == nil, len(want))
	}
	for i, l := range want {
		if int64(len(out[i])) != l || int64(cap(out[i])) != l {
			t.Fatalf("sub-vector %d: len %d cap %d, want %d", i, len(out[i]), cap(out[i]), l)
		}
	}
}

// TestDoubleVecSubVectorsDoNotAlias: both receive paths — the custom type's
// and the manual-pack baseline's UnpackDoubleVec — cut one backing array,
// and an append to one sub-vector leaves its neighbour alone.
func TestDoubleVecSubVectorsDoNotAlias(t *testing.T) {
	send := NewDoubleVec(3000, 1000, 5)
	check := func(t *testing.T, recv [][]byte) {
		t.Helper()
		if len(recv) != len(send) {
			t.Fatalf("%d sub-vectors, want %d", len(recv), len(send))
		}
		_ = append(recv[0], 0xEE)
		for i := range send {
			if !bytes.Equal(recv[i], send[i]) {
				t.Fatalf("sub-vector %d differs", i)
			}
		}
	}
	t.Run("custom", func(t *testing.T) {
		var recv [][]byte
		run2(t,
			func(c *core.Comm) error { return c.Send(send, 1, DoubleVecCustom(), 1, 1) },
			func(c *core.Comm) error {
				_, err := c.Recv(&recv, 1, DoubleVecCustom(), 0, 1)
				return err
			})
		check(t, recv)
	})
	t.Run("manual", func(t *testing.T) {
		buf := make([]byte, PackedDoubleVecSize(send))
		PackDoubleVec(send, buf)
		recv, err := UnpackDoubleVec(buf)
		if err != nil {
			t.Fatal(err)
		}
		check(t, recv)
	})
}

// TestDoubleVecPackWindows: Pack writes any window of the head, split at
// any point, exactly as PackDoubleVec lays it out, and allocates nothing.
func TestDoubleVecPackWindows(t *testing.T) {
	h := doubleVecHandler{}
	for _, vecs := range [][][]byte{{}, NewDoubleVec(10, 4, 1), NewDoubleVec(5000, 300, 2)} {
		want := make([]byte, PackedDoubleVecSize(vecs))
		PackDoubleVec(vecs, want)
		size := len(want) - DoubleVecBytes(vecs)
		want = want[:size]
		st, err := h.State(vecs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off <= size; off++ {
			for _, split := range []int{1, 3, 8, 13, size} {
				got := make([]byte, size+8)
				for o := off; o < size+8; {
					end := min(o+split, len(got))
					n, err := h.Pack(st, vecs, 1, Count(o), got[o:end])
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					o += int(n)
				}
				if !bytes.Equal(got[off:size], want[off:]) || !bytes.Equal(got[size:], make([]byte, 8)) {
					t.Fatalf("%d vectors: head packed from %d in %d-byte steps differs", len(vecs), off, split)
				}
			}
		}
	}
	vecs := NewDoubleVec(4<<20, 1024, 3) // a 32 KiB head
	st, _ := h.State(vecs, 1)
	dst := make([]byte, 16<<10)
	if allocs := testing.AllocsPerRun(20, func() {
		for off := Count(0); off < 32<<10; off += Count(len(dst)) {
			h.Pack(st, vecs, 1, off, dst)
		}
	}); allocs != 0 {
		t.Fatalf("Pack allocates %v times a head", allocs)
	}
}

// FuzzDoubleVecHead feeds arbitrary head bytes to a receive in random
// fragment splits: the outcome is an error, or sub-vectors whose lengths
// are the ones the head names — never a panic.
func FuzzDoubleVecHead(f *testing.F) {
	f.Add(dvHead(0), uint64(1))
	f.Add(dvHead(3, 0, 5, 1), uint64(2))
	f.Add(dvHead(2, 4, -3), uint64(3))
	f.Add(dvHead(-1), uint64(4))
	f.Add(dvHead(math.MaxInt64), uint64(5))
	f.Add(dvHead(2, 1<<19, 1<<19), uint64(6))
	f.Add([]byte{1, 0, 0}, uint64(7))
	f.Fuzz(func(t *testing.T, head []byte, seed uint64) {
		const limit = 1 << 20 // a test's allocations stay small
		if dvNamedBytes(head) > limit {
			t.Skip("the head names more than a test allocates")
		}
		h := doubleVecHandler{}
		var out [][]byte
		st, err := h.State(&out, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		for off := 0; off < len(head) && err == nil; {
			k := 1 + rng.IntN(len(head)-off)
			err = h.Unpack(st, &out, 1, Count(off), head[off:off+k])
			off += k
		}
		if err != nil {
			return
		}
		nreg, err := h.RegionCount(st, &out, 1)
		if err != nil {
			return
		}
		regions := make([][]byte, nreg)
		if err := h.Regions(st, &out, 1, regions); err != nil {
			t.Fatal(err)
		}
		n := layout.I64(head, 0)
		if int64(len(head)) != 8*(n+1) || int64(nreg) != n || int64(len(out)) != n {
			t.Fatalf("a %d-byte head naming %d vectors became %d regions, %d sub-vectors", len(head), n, nreg, len(out))
		}
		for i := range out {
			l := layout.I64(head, 8*(i+1))
			if int64(len(out[i])) != l || int64(cap(out[i])) != l || len(regions[i]) != len(out[i]) {
				t.Fatalf("sub-vector %d: len %d cap %d region %d, head says %d",
					i, len(out[i]), cap(out[i]), len(regions[i]), l)
			}
		}
	})
}

// dvNamedBytes sums the non-negative lengths a head's bytes name, as far
// as its count and its bytes reach, saturating at math.MaxInt64.
func dvNamedBytes(head []byte) int64 {
	if len(head) < 8 {
		return 0
	}
	n := min(layout.I64(head, 0), int64(len(head)/8-1))
	sum := int64(0)
	for i := int64(1); i <= n; i++ {
		if l := layout.I64(head, int(8*i)); l > 0 {
			if l > math.MaxInt64-sum {
				return math.MaxInt64
			}
			sum += l
		}
	}
	return sum
}
