package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"unsafe"

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
// fragment splits, into a nil buffer or one pre-shaped from the head's own
// lengths (dvPreShape): the outcome is an error, or sub-vectors whose
// lengths are the ones the head names — never a panic. No byte of the
// pre-shaped buffer's array outside its sub-vectors changes, nor one
// inside them unless the receive landed there: only in a faithful cut,
// never in one with a gap, an overlap or a length off.
func FuzzDoubleVecHead(f *testing.F) {
	f.Add(dvHead(0), uint64(1))
	f.Add(dvHead(3, 0, 5, 1), uint64(2))
	f.Add(dvHead(2, 4, -3), uint64(3))
	f.Add(dvHead(-1), uint64(4))
	f.Add(dvHead(math.MaxInt64), uint64(5))
	f.Add(dvHead(2, 1<<19, 1<<19), uint64(6))
	f.Add([]byte{1, 0, 0}, uint64(7))
	f.Add(dvHead(4, 7, 0, 9, 2), uint64(8))
	f.Add(dvHead(3, 1, 2, 3), uint64(9))
	f.Add([]byte{}, uint64(10))
	f.Add(append(dvHead(1, 5), 0, 0), uint64(11))
	f.Fuzz(func(t *testing.T, head []byte, seed uint64) {
		const limit = 1 << 20 // a test's allocations stay small
		if dvNamedBytes(head) > limit {
			t.Skip("the head names more than a test allocates")
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		mode := dvShape(rng.IntN(int(dvShapes)))
		arena, out, inside, perturbed := dvPreShape(head, mode)
		prev, orig := out, bytes.Clone(arena)
		h := doubleVecHandler{}
		st, err := h.State(&out, 1)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(head) && err == nil; {
			k := 1 + rng.IntN(len(head)-off)
			err = h.Unpack(st, &out, 1, Count(off), head[off:off+k])
			off += k
		}
		var regions [][]byte
		if err == nil {
			var nreg Count
			if nreg, err = h.RegionCount(st, &out, 1); err == nil {
				regions = make([][]byte, nreg)
				if err := h.Regions(st, &out, 1, regions); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range regions { // the payload lands
			for i := range r {
				r[i] = 0xA5
			}
		}
		reused := prev != nil && len(out) == len(prev) && unsafe.SliceData(out) == unsafe.SliceData(prev)
		for i := range arena {
			if arena[i] != orig[i] && (!inside[i] || !reused) {
				t.Fatalf("byte %d of the old buffer's array was written (inside a sub-vector %v, reused %v)", i, inside[i], reused)
			}
		}
		if err != nil {
			// Bytes past a head that ended are refused after it landed;
			// a head refused before its end leaves the buffer alone.
			landed := st.(*dvState).vecs != nil
			if !landed && (len(out) != len(prev) || len(out) > 0 && !reused) {
				t.Fatalf("a refused head replaced the buffer: %v", err)
			}
			return
		}
		if len(head) == 0 {
			return // no head arrived: the regions were the old buffer's own
		}
		n := layout.I64(head, 0)
		if int64(len(head)) != 8*(n+1) || int64(len(regions)) != n || int64(len(out)) != n {
			t.Fatalf("a %d-byte head naming %d vectors became %d regions, %d sub-vectors", len(head), n, len(regions), len(out))
		}
		for i := range out {
			l := layout.I64(head, 8*(i+1))
			if int64(len(out[i])) != l || int64(cap(out[i])) != l || len(regions[i]) != len(out[i]) {
				t.Fatalf("sub-vector %d: len %d cap %d region %d, head says %d",
					i, len(out[i]), cap(out[i]), len(regions[i]), l)
			}
		}
		switch {
		case mode == dvFaithful && n > 0 && !reused:
			t.Fatal("a receive into the cut its head names got a fresh one")
		case perturbed && reused:
			t.Fatalf("a receive landed in a %v cut", mode)
		}
	})
}

// dvShape is how dvPreShape cuts a receive's old buffer from a head.
type dvShape int

const (
	dvNil      dvShape = iota // no buffer
	dvFaithful                // the cut the head names
	dvGap                     // a byte between two non-empty sub-vectors
	dvOverlap                 // two non-empty sub-vectors share a byte
	dvLonger                  // the first sub-vector a byte long
	dvShapes
)

func (s dvShape) String() string {
	return [...]string{"nil", "faithful", "gap", "overlap", "longer"}[s]
}

// dvPreShape cuts an old receive buffer from the count and lengths head
// names, as far as its bytes reach, negatives as empty: one array, a guard
// byte at each end, each sub-vector's capacity running to the array's end.
// inside marks the array bytes some sub-vector holds; perturbed reports
// whether the shape could differ from the head's as mode asks.
func dvPreShape(head []byte, mode dvShape) (arena []byte, out [][]byte, inside []bool, perturbed bool) {
	n := 0
	if len(head) >= 8 {
		n = int(min(max(layout.I64(head, 0), 0), int64(len(head)/8-1)))
	}
	lens := make([]int, n)
	total, nonEmpty := 0, 0
	for i := range lens {
		lens[i] = int(max(layout.I64(head, 8*(i+1)), 0)) // dvNamedBytes bounds the sum
		total += lens[i]
		if lens[i] > 0 {
			nonEmpty++
		}
	}
	arena = bytes.Repeat([]byte{0x5A}, total+n+3)
	inside = make([]bool, len(arena))
	if mode == dvNil {
		return arena, nil, inside, false
	}
	switch mode {
	case dvGap, dvOverlap:
		perturbed = nonEmpty >= 2
	case dvLonger:
		if perturbed = n > 0; perturbed {
			lens[0]++
		}
	}
	out = make([][]byte, n)
	off, seen := 1, 0
	for i, l := range lens {
		if l > 0 {
			if seen++; seen == 2 && mode == dvGap {
				off++
			} else if seen == 2 && mode == dvOverlap {
				off--
			}
		}
		out[i] = arena[off : off+l]
		for j := off; j < off+l; j++ {
			inside[j] = true
		}
		off += l
	}
	return arena, out, inside, perturbed
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

// recvByHandler receives send into *out through the bare handler, as a
// binding does: the head in two fragments, then the payload copied into
// the regions the head named.
func recvByHandler(out *[][]byte, send [][]byte) error {
	h := doubleVecHandler{}
	sst, err := h.State(send, 1)
	if err != nil {
		return err
	}
	head := make([]byte, dvHeaderSize(len(send)))
	if _, err := h.Pack(sst, send, 1, 0, head); err != nil {
		return err
	}
	st, err := h.State(out, 1)
	if err != nil {
		return err
	}
	half := len(head) / 2
	if err := h.Unpack(st, out, 1, 0, head[:half]); err != nil {
		return err
	}
	if err := h.Unpack(st, out, 1, Count(half), head[half:]); err != nil {
		return err
	}
	n, err := h.RegionCount(st, out, 1)
	if err != nil {
		return err
	}
	regions := make([][]byte, n)
	if err := h.Regions(st, out, 1, regions); err != nil {
		return err
	}
	for i, r := range regions {
		copy(r, send[i])
	}
	return h.FreeState(st)
}

// dvPaths receive each of sends in turn into *out — through the bare
// handler, or as messages of a two-rank world, posted before the messages
// arrive or only once every one has — and call after(i) once the i-th has
// landed; an error from after fails the test. A world path returns how
// many of the sends went eager and how many by rendezvous.
var dvPaths = []struct {
	name string
	recv func(t *testing.T, out *[][]byte, sends [][][]byte, after func(i int) error) (eager, rndv int64)
}{
	{"handler", func(t *testing.T, out *[][]byte, sends [][][]byte, after func(int) error) (int64, int64) {
		t.Helper()
		for i, s := range sends {
			if err := recvByHandler(out, s); err != nil {
				t.Fatal(err)
			}
			if err := after(i); err != nil {
				t.Fatal(err)
			}
		}
		return 0, 0
	}},
	{"recv", func(t *testing.T, out *[][]byte, sends [][][]byte, after func(int) error) (int64, int64) {
		t.Helper()
		return dvWorld(t, out, sends, after, false)
	}},
	{"recv-unexpected", func(t *testing.T, out *[][]byte, sends [][][]byte, after func(int) error) (int64, int64) {
		t.Helper()
		return dvWorld(t, out, sends, after, true)
	}},
}

// dvWorld sends each of sends from rank 0 and receives it into *out on
// rank 1. With late, rank 1 posts no receive before every message has
// arrived: rank 0 sends them all nonblocking, then a marker on the same
// link, and rank 1 receives the marker first.
func dvWorld(t *testing.T, out *[][]byte, sends [][][]byte, after func(int) error, late bool) (eager, rndv int64) {
	t.Helper()
	dt := DoubleVecCustom()
	marker := len(sends)
	run2(t,
		func(c *core.Comm) error {
			st := c.Worker().Stats()
			e0, r0 := st.EagerSends.Load(), st.RndvSends.Load()
			var reqs []*core.Request
			for i, s := range sends {
				if !late {
					if err := c.Send(s, 1, dt, 1, i); err != nil {
						return err
					}
					continue
				}
				r, err := c.Isend(s, 1, dt, 1, i)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			eager, rndv = st.EagerSends.Load()-e0, st.RndvSends.Load()-r0
			if late {
				if err := c.Send([]byte{1}, 1, core.TypeBytes, 1, marker); err != nil {
					return err
				}
			}
			for _, r := range reqs {
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		},
		func(c *core.Comm) error {
			st := c.Worker().Stats()
			if late {
				if _, err := c.Recv(make([]byte, 1), 1, core.TypeBytes, 0, marker); err != nil {
					return err
				}
			}
			u0 := st.UnexpectedHits.Load()
			// Every message is received, whatever fails, so the
			// sender is never left waiting for a receive.
			var first error
			for i := range sends {
				_, err := c.Recv(out, 1, dt, 0, i)
				if err == nil {
					err = after(i)
				}
				if first == nil {
					first = err
				}
			}
			if u := st.UnexpectedHits.Load() - u0; first == nil && late && u != int64(len(sends)) {
				first = fmt.Errorf("%d of %d messages arrived before their receive", u, len(sends))
			}
			return first
		})
	return eager, rndv
}

// sameDoubleVec reports how got differs from want, shape and bytes.
func sameDoubleVec(got, want [][]byte) error {
	if got == nil || len(got) != len(want) {
		return fmt.Errorf("%d sub-vectors (nil %v), want %d", len(got), got == nil, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
			return fmt.Errorf("sub-vector %d: len %d cap %d, differs from the %d sent", i, len(got[i]), cap(got[i]), len(want[i]))
		}
	}
	return nil
}

// TestDoubleVecReuseSameShape: twenty same-shape messages, each of other
// bytes, land in one buffer — the first receive's cut — and each leaves
// exactly what was sent: in one-fragment and two-fragment eager messages,
// the 24 KiB shape's head and sub-vectors spanning fragments, and in
// striped rendezvous ones.
func TestDoubleVecReuseSameShape(t *testing.T) {
	for _, shape := range []struct {
		total, subvec int
		eager         bool
	}{{2 << 10, 256, true}, {24 << 10, 1 << 10, true}, {256 << 10, 1 << 10, false}} {
		sends := make([][][]byte, 20)
		for i := range sends {
			sends[i] = NewDoubleVec(shape.total, shape.subvec, byte(3*i+1))
		}
		for _, p := range dvPaths {
			t.Run(fmt.Sprintf("%d/%d/%s", shape.total, shape.subvec, p.name), func(t *testing.T) {
				var out [][]byte
				var outer *[]byte
				var data *byte
				eager, rndv := p.recv(t, &out, sends, func(i int) error {
					if err := sameDoubleVec(out, sends[i]); err != nil {
						return fmt.Errorf("receive %d: %v", i, err)
					}
					if i == 0 {
						outer, data = unsafe.SliceData(out), unsafe.SliceData(out[0])
					} else if unsafe.SliceData(out) != outer || unsafe.SliceData(out[0]) != data {
						return fmt.Errorf("receive %d did not land in the buffer the first one cut", i)
					}
					return nil
				})
				if p.name == "handler" {
					return
				}
				if n := int64(len(sends)); shape.eager && eager != n || !shape.eager && rndv != n {
					t.Fatalf("%d eager and %d rendezvous sends, want all %d eager: %v", eager, rndv, n, shape.eager)
				}
			})
		}
	}
}

// TestDoubleVecReuseShapeChange: a message of another shape gets a fresh
// cut, and the buffer of the previous shape is not written.
func TestDoubleVecReuseShapeChange(t *testing.T) {
	a := NewDoubleVec(64<<10, 1<<10, 1)
	b := NewDoubleVec(64<<10, 1<<10, 2)
	b[3] = b[3][:1000] // one length differs, the count does not
	c := NewDoubleVec(64<<10, 2<<10, 3)
	sends := [][][]byte{a, b, a, c}
	for _, p := range dvPaths {
		t.Run(p.name, func(t *testing.T) {
			var out, old [][]byte
			p.recv(t, &out, sends, func(i int) error {
				if err := sameDoubleVec(out, sends[i]); err != nil {
					return fmt.Errorf("receive %d: %v", i, err)
				}
				if i > 0 {
					if unsafe.SliceData(out[0]) == unsafe.SliceData(old[0]) {
						return fmt.Errorf("receive %d of another shape landed in the old buffer", i)
					}
					if err := sameDoubleVec(old, sends[i-1]); err != nil {
						return fmt.Errorf("receive %d wrote the old buffer: %v", i, err)
					}
				}
				old = out
				return nil
			})
		})
	}
}

// TestDoubleVecReuseRefusesForeignCuts: sub-vectors of the right lengths
// that are not one contiguous, in-order cut — separate allocations, all
// aliasing one range, out of order, or with a gap — are not received
// into: a fresh cut comes back and the old memory is not written.
func TestDoubleVecReuseRefusesForeignCuts(t *testing.T) {
	send := [][]byte{bytes.Repeat([]byte{1}, 300), {}, bytes.Repeat([]byte{2}, 500), bytes.Repeat([]byte{3}, 200)}
	for _, c := range []struct {
		name  string
		shape func(arena []byte) [][]byte
	}{
		{"separate", func([]byte) [][]byte {
			return [][]byte{make([]byte, 300), nil, make([]byte, 500), make([]byte, 200)}
		}},
		{"aliased", func(a []byte) [][]byte { return [][]byte{a[:300], nil, a[:500], a[:200]} }},
		{"reversed", func(a []byte) [][]byte { return [][]byte{a[700:1000], nil, a[200:700], a[:200]} }},
		{"gap", func(a []byte) [][]byte { return [][]byte{a[:300], nil, a[301:801], a[801:1001]} }},
	} {
		for _, p := range dvPaths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				arena := bytes.Repeat([]byte{0x5A}, 1100)
				out := c.shape(arena)
				old := make([][]byte, len(out))
				for i, v := range out {
					old[i] = bytes.Clone(v)
				}
				prev := out
				p.recv(t, &out, [][][]byte{send}, func(int) error {
					if err := sameDoubleVec(out, send); err != nil {
						return err
					}
					for i := range out {
						if len(out[i]) > 0 && unsafe.SliceData(out[i]) == unsafe.SliceData(prev[i]) {
							return fmt.Errorf("sub-vector %d landed in the old buffer", i)
						}
						if !bytes.Equal(prev[i], old[i]) {
							return fmt.Errorf("old sub-vector %d was written", i)
						}
					}
					if !bytes.Equal(arena, bytes.Repeat([]byte{0x5A}, len(arena))) {
						return errors.New("the old buffer's memory was written")
					}
					return nil
				})
			})
		}
	}
}

// TestDoubleVecReuseClipsCapacity: a caller's own contiguous cut, each
// sub-vector's capacity reaching the end of its array, is received into
// and clipped in place, so an append to one sub-vector reallocates rather
// than writing its neighbour or the array's unused end.
func TestDoubleVecReuseClipsCapacity(t *testing.T) {
	send := NewDoubleVec(10<<10, 1<<10, 4)
	for _, p := range dvPaths {
		t.Run(p.name, func(t *testing.T) {
			arena := bytes.Repeat([]byte{0x5A}, 10<<10+64)
			out := make([][]byte, 10)
			for i := range out {
				out[i] = arena[i<<10 : (i+1)<<10]
			}
			p.recv(t, &out, [][][]byte{send}, func(int) error {
				if err := sameDoubleVec(out, send); err != nil { // caps clipped too
					return err
				}
				if unsafe.SliceData(out[0]) != &arena[0] {
					return errors.New("a same-shape contiguous cut was not received into")
				}
				_ = append(out[0], 0xEE)
				_ = append(out[9], 0xEE)
				if out[1][0] != send[1][0] || !bytes.Equal(arena[10<<10:], bytes.Repeat([]byte{0x5A}, 64)) {
					return errors.New("an append to a received sub-vector wrote past it")
				}
				return nil
			})
		})
	}
}

// TestDoubleVecReuseEmptyIntoNil: an empty message into a nil buffer
// yields an empty, non-nil one, and into that an empty one again.
func TestDoubleVecReuseEmptyIntoNil(t *testing.T) {
	for _, p := range dvPaths {
		t.Run(p.name, func(t *testing.T) {
			var out [][]byte
			p.recv(t, &out, [][][]byte{{}, {}}, func(i int) error {
				if out == nil || len(out) != 0 {
					return fmt.Errorf("receive %d: %d sub-vectors, nil %v", i, len(out), out == nil)
				}
				return nil
			})
		})
	}
}

// TestDoubleVecReuseAllocsPinned: a same-shape receive — the head in two
// fragments, then its regions — allocates nothing in the handler: neither
// the payload, nor the outer slice, nor the head's staging.
func TestDoubleVecReuseAllocsPinned(t *testing.T) {
	send := NewDoubleVec(256<<10, 1<<10, 5)
	h := doubleVecHandler{}
	sst, _ := h.State(send, 1)
	head := make([]byte, dvHeaderSize(len(send)))
	if _, err := h.Pack(sst, send, 1, 0, head); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	if err := recvByHandler(&out, send); err != nil {
		t.Fatal(err)
	}
	data := unsafe.SliceData(out[0])
	st := &dvState{}
	regions := make([][]byte, len(send))
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		*st = dvState{out: &out}
		half := len(head) / 2
		if err = h.Unpack(st, &out, 1, 0, head[:half]); err == nil {
			err = h.Unpack(st, &out, 1, Count(half), head[half:])
		}
		if err == nil {
			err = h.Regions(st, &out, 1, regions)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(regions[0]) != data || unsafe.SliceData(out[0]) != data {
		t.Fatal("the receive did not land in the previous cut")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random: the count is noise")
	}
	if allocs != 0 {
		t.Fatalf("a same-shape receive allocates %v times in the handler", allocs)
	}
}
