package ucp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mpicd/internal/fabric"
)

const anyMask = Tag(0)

const exactMask = ^Tag(0)

// pair brings up a 2-rank inproc fabric with workers.
func pair(t *testing.T, fcfg fabric.Config, cfg Config) (*Worker, *Worker) {
	t.Helper()
	return group(t, 2, fcfg, cfg)
}

func group(t *testing.T, n int, fcfg fabric.Config, cfg Config) (*Worker, *Worker) {
	t.Helper()
	f := fabric.NewInproc(n, fcfg)
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = NewWorker(f.NIC(i), cfg)
	}
	t.Cleanup(func() {
		for _, w := range ws {
			w.Close()
		}
		poolDrained(t, f)
	})
	if n == 2 {
		return ws[0], ws[1]
	}
	return ws[0], ws[1]
}

// poolDrained closes the fabric once its workers are closed and checks
// that every wire packet went back to the pool: one still out was dropped
// without Release somewhere in a pending, frags or seen path.
func poolDrained(t *testing.T, f *fabric.Inproc) {
	t.Helper()
	f.Close()
	if n := f.PoolOutstanding(); n != 0 {
		t.Errorf("%d wire packets never released", n)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

func sendRecvContig(t *testing.T, size int, cfg Config, fcfg fabric.Config) {
	t.Helper()
	a, b := pair(t, fcfg, cfg)
	data := pattern(size, 1)
	out := make([]byte, size)
	rr, err := b.Recv(0, 7, exactMask, Contig{}, out, int64(size))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := a.Send(1, 7, Contig{}, data, int64(size), 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("size %d: data mismatch", size)
	}
	from, tag, n := rr.Status()
	if from != 0 || tag != 7 || n != int64(size) {
		t.Fatalf("status = (%d, %d, %d)", from, tag, n)
	}
}

func TestContigSizes(t *testing.T) {
	// Spans zero, sub-fragment, exact fragment, multi-fragment eager, and
	// rendezvous sizes.
	for _, size := range []int{0, 1, 100, 4096, 16384, 16385, 32768, 32769, 100000, 1 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			sendRecvContig(t, size, Config{}, fabric.Config{FragSize: 4096})
		})
	}
}

func TestUnexpectedBeforePost(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(10000, 2)
	sr, err := a.Send(1, 3, Contig{}, data, -1, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Wait(); err != nil { // eager completes locally
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let it land in the unexpected queue
	out := make([]byte, 10000)
	rr, err := b.Recv(0, 3, exactMask, Contig{}, out, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("unexpected-path data mismatch")
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 1024})
	data := pattern(100000, 3)
	sr, _ := a.Send(1, 3, Contig{}, data, -1, 0, ProtoAuto)
	time.Sleep(10 * time.Millisecond)
	out := make([]byte, 100000)
	rr, _ := b.Recv(0, 3, exactMask, Contig{}, out, -1)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rndv unexpected-path mismatch")
	}
}

func TestTagMatchingWildcards(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	// Send three tagged messages.
	for tag := Tag(1); tag <= 3; tag++ {
		if _, err := a.Send(1, tag, Contig{}, []byte{byte(tag)}, 1, 0, ProtoAuto); err != nil {
			t.Fatal(err)
		}
	}
	// Wildcard receive picks them up in arrival order.
	for want := 1; want <= 3; want++ {
		out := make([]byte, 1)
		rr, err := b.Recv(-1, 0, anyMask, Contig{}, out, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rr.Wait(); err != nil {
			t.Fatal(err)
		}
		if out[0] != byte(want) {
			t.Fatalf("wildcard order: got %d, want %d", out[0], want)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	if _, err := a.Send(1, 10, Contig{}, []byte{10}, 1, 0, ProtoAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(1, 20, Contig{}, []byte{20}, 1, 0, ProtoAuto); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1)
	rr, _ := b.Recv(0, 20, exactMask, Contig{}, out, 1)
	if err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if out[0] != 20 {
		t.Fatalf("selective recv got %d", out[0])
	}
	rr, _ = b.Recv(0, 10, exactMask, Contig{}, out, 1)
	if err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 {
		t.Fatalf("second recv got %d", out[0])
	}
}

func TestPerSourceTagFIFO(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := a.Send(1, 5, Contig{}, []byte{byte(i)}, 1, 0, ProtoAuto); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		out := make([]byte, 1)
		rr, _ := b.Recv(0, 5, exactMask, Contig{}, out, 1)
		if err := rr.Wait(); err != nil {
			t.Fatal(err)
		}
		if out[0] != byte(i) {
			t.Fatalf("message %d out of order (got %d)", i, out[0])
		}
	}
}

func TestIovSendRecv(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	parts := [][]byte{pattern(100, 1), pattern(5000, 2), pattern(3, 3)}
	var want []byte
	for _, p := range parts {
		want = append(want, p...)
	}
	dst := [][]byte{make([]byte, 2000), make([]byte, 3103)}
	rr, err := b.Recv(0, 9, exactMask, Iov{}, dst, -1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := a.Send(1, 9, Iov{}, parts, -1, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte{}, dst[0]...), dst[1]...)
	if !bytes.Equal(got, want) {
		t.Fatal("iov reshape mismatch")
	}
}

func TestSelfSend(t *testing.T) {
	f := fabric.NewInproc(1, fabric.Config{})
	w := NewWorker(f.NIC(0), Config{})
	defer w.Close()
	data := pattern(50000, 4)
	out := make([]byte, 50000)
	rr, err := w.Recv(0, 1, exactMask, Contig{}, out, -1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := w.Send(0, 1, Contig{}, data, -1, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("self-send mismatch")
	}
	// Send-before-recv order too.
	sr, _ = w.Send(0, 2, Contig{}, data[:10], -1, 0, ProtoAuto)
	rr, _ = w.Recv(0, 2, exactMask, Contig{}, out[:10], -1)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(1000, 5)
	out := make([]byte, 10)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, -1)
	a.Send(1, 1, Contig{}, data, -1, 0, ProtoAuto)
	err := rr.Wait()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v; want ErrTruncated", err)
	}
}

func TestTruncationErrorRndv(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 100})
	data := pattern(100000, 5)
	out := make([]byte, 10)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, -1)
	sr, _ := a.Send(1, 1, Contig{}, data, -1, 0, ProtoAuto)
	if err := rr.Wait(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("recv err = %v; want ErrTruncated", err)
	}
	// Sender still completes (FIN always arrives).
	if err := sr.Wait(); err == nil {
		t.Log("sender completed cleanly after remote truncation (allowed)")
	}
}

func TestProbeAndGetCount(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(777, 6)
	if _, err := a.Send(1, 33, Contig{}, data, -1, 4242, ProtoAuto); err != nil {
		t.Fatal(err)
	}
	m, err := b.Probe(-1, 33, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 777 || m.From != 0 || m.Tag != 33 || m.Aux0 != 4242 {
		t.Fatalf("probe info = %+v", m)
	}
	// Probe does not consume: a normal receive still matches.
	out := make([]byte, m.Total)
	rr, _ := b.Recv(m.From, m.Tag, exactMask, Contig{}, out, -1)
	if err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("probe+recv mismatch")
	}
}

func TestProbeNonBlocking(t *testing.T) {
	_, b := pair(t, fabric.Config{}, Config{})
	m, err := b.Probe(-1, 0, anyMask, false)
	if err != nil || m != nil {
		t.Fatalf("empty probe = %v, %v", m, err)
	}
}

func TestMprobeMrecv(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	d1 := pattern(100, 7)
	d2 := pattern(200, 8)
	a.Send(1, 1, Contig{}, d1, -1, 0, ProtoAuto)
	a.Send(1, 1, Contig{}, d2, -1, 0, ProtoAuto)
	m1, err := b.Mprobe(-1, 1, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.Mprobe(-1, 1, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Total != 100 || m2.Total != 200 {
		t.Fatalf("mprobe sizes = %d, %d", m1.Total, m2.Total)
	}
	// Receive them out of order: claims are independent.
	o2 := make([]byte, m2.Total)
	r2, err := b.MRecv(m2, Contig{}, o2, -1)
	if err != nil {
		t.Fatal(err)
	}
	o1 := make([]byte, m1.Total)
	r1, err := b.MRecv(m1, Contig{}, o1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(r1, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1, d1) || !bytes.Equal(o2, d2) {
		t.Fatal("mrecv data mismatch")
	}
	// Double MRecv on the same handle fails.
	if _, err := b.MRecv(m1, Contig{}, o1, -1); err == nil {
		t.Fatal("MRecv on consumed message should fail")
	}
}

func TestMprobeRendezvousMessage(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 512})
	data := pattern(90000, 9)
	sr, _ := a.Send(1, 2, Contig{}, data, -1, 0, ProtoAuto)
	m, err := b.Mprobe(-1, 2, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, m.Total)
	rr, err := b.MRecv(m, Contig{}, out, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rndv mrecv mismatch")
	}
}

func TestCancelRecv(t *testing.T) {
	_, b := pair(t, fabric.Config{}, Config{})
	out := make([]byte, 10)
	rr, _ := b.Recv(-1, 1, exactMask, Contig{}, out, -1)
	if !b.CancelRecv(rr) {
		t.Fatal("cancel should succeed for unmatched recv")
	}
	if err := rr.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v; want ErrCanceled", err)
	}
	if b.CancelRecv(rr) {
		t.Fatal("second cancel should fail")
	}
}

func TestConcurrentPingPongManyGoroutines(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for g := 0; g < workers; g++ {
		wg.Add(2)
		tag := Tag(100 + g)
		go func(tag Tag) {
			defer wg.Done()
			buf := pattern(1024, byte(tag))
			for i := 0; i < iters; i++ {
				sr, err := a.Send(1, tag, Contig{}, buf, -1, 0, ProtoAuto)
				if err != nil {
					errs <- err
					return
				}
				if err := sr.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(tag)
		go func(tag Tag) {
			defer wg.Done()
			out := make([]byte, 1024)
			want := pattern(1024, byte(tag))
			for i := 0; i < iters; i++ {
				rr, err := b.Recv(0, tag, exactMask, Contig{}, out, -1)
				if err != nil {
					errs <- err
					return
				}
				if err := rr.Wait(); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(out, want) {
					errs <- fmt.Errorf("tag %d: corrupted message", tag)
					return
				}
			}
		}(tag)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// Property: random sizes and thresholds roundtrip exactly.
func TestContigRoundtripProperty(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{FragSize: 512})
	a := NewWorker(f.NIC(0), Config{RndvThresh: 2048})
	b := NewWorker(f.NIC(1), Config{RndvThresh: 2048})
	defer a.Close()
	defer b.Close()
	check := func(sz uint16, seed int64) bool {
		size := int(sz) % 20000
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, size)
		rng.Read(data)
		out := make([]byte, size)
		rr, err := b.Recv(0, 1, exactMask, Contig{}, out, -1)
		if err != nil {
			return false
		}
		sr, err := a.Send(1, 1, Contig{}, data, -1, 0, ProtoAuto)
		if err != nil {
			return false
		}
		if WaitAll(sr, rr) != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- generic datatype tests -------------------------------------------------

// xorOps is a trivial generic datatype: the packed form is the buffer with
// every byte XORed with a key. It also records offsets to verify ordering.
type xorOps struct {
	key     byte
	mu      sync.Mutex
	offsets []int64
}

type xorPack struct {
	ops  *xorOps
	data []byte
}

func (o *xorOps) StartPack(buf any, count int64) (PackState, error) {
	return &xorPack{ops: o, data: buf.([]byte)[:count]}, nil
}

func (o *xorOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &xorUnpack{ops: o, data: buf.([]byte)[:count]}, nil
}

func (p *xorPack) PackedSize() (int64, error) { return int64(len(p.data)), nil }

func (p *xorPack) Pack(off int64, dst []byte) (int, error) {
	n := copy(dst, p.data[off:])
	for i := 0; i < n; i++ {
		dst[i] ^= p.ops.key
	}
	return n, nil
}

func (p *xorPack) Finish() error { return nil }

type xorUnpack struct {
	ops  *xorOps
	data []byte
}

func (u *xorUnpack) UnpackedSize() (int64, error) { return int64(len(u.data)), nil }

func (u *xorUnpack) Unpack(off int64, src []byte) error {
	u.ops.mu.Lock()
	u.ops.offsets = append(u.ops.offsets, off)
	u.ops.mu.Unlock()
	for i, b := range src {
		u.data[off+int64(i)] = b ^ u.ops.key
	}
	return nil
}

func (u *xorUnpack) Finish() error { return nil }

func TestGenericDatatypeEager(t *testing.T) {
	a, b := pair(t, fabric.Config{FragSize: 1024}, Config{})
	ops := &xorOps{key: 0x5A}
	data := pattern(10000, 10)
	out := make([]byte, 10000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, 10000)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 10000, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("generic eager roundtrip mismatch")
	}
}

func TestGenericDatatypeRndv(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 100})
	ops := &xorOps{key: 0xA5}
	data := pattern(250000, 11)
	out := make([]byte, 250000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, 250000)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 250000, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("generic rndv roundtrip mismatch")
	}
}

// partialPackOps packs at most chunk bytes per Pack call, exercising the
// underfilled-fragment path the paper's API explicitly allows.
type partialPackOps struct {
	chunk int
}

type partialPack struct {
	data  []byte
	chunk int
}

func (o *partialPackOps) StartPack(buf any, count int64) (PackState, error) {
	return &partialPack{data: buf.([]byte)[:count], chunk: o.chunk}, nil
}

func (o *partialPackOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &xorUnpack{ops: &xorOps{key: 0}, data: buf.([]byte)[:count]}, nil
}

func (p *partialPack) PackedSize() (int64, error) { return int64(len(p.data)), nil }

func (p *partialPack) Pack(off int64, dst []byte) (int, error) {
	if len(dst) > p.chunk {
		dst = dst[:p.chunk]
	}
	return copy(dst, p.data[off:]), nil
}

func (p *partialPack) Finish() error { return nil }

func TestGenericPartialPack(t *testing.T) {
	a, b := pair(t, fabric.Config{FragSize: 4096}, Config{})
	ops := &partialPackOps{chunk: 100}
	data := pattern(5000, 12)
	out := make([]byte, 5000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, 5000)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 5000, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("partial pack roundtrip mismatch")
	}
}

// TestGenericInOrderUnderOutOfOrderFabric: a fault plan reorders half the
// packets (reorderPlan), and the inorder datatype still sees its fragments
// in order.
func TestGenericInOrderUnderOutOfOrderFabric(t *testing.T) {
	cfg := reliableCfg()
	cfg.RndvThresh = 1 << 30
	a, b := faultWorkers(t, 7, fabric.Config{FragSize: 256}, cfg, reorderPlan)
	ops := &xorOps{key: 0x11}
	data := pattern(20000, 13)
	out := make([]byte, 20000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops, InOrder: true}, out, 20000)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 20000, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("inorder roundtrip mismatch")
	}
	// The inorder contract: offsets observed by unpack are strictly
	// increasing.
	ops.mu.Lock()
	defer ops.mu.Unlock()
	for i := 1; i < len(ops.offsets); i++ {
		if ops.offsets[i] <= ops.offsets[i-1] {
			t.Fatalf("unpack offsets not increasing: %v", ops.offsets)
		}
	}
	if len(ops.offsets) < 3 {
		t.Fatalf("expected multiple fragments, got %d", len(ops.offsets))
	}
}

// failPackOps fails partway through packing.
type failPackOps struct{ failAt int64 }

type failPack struct {
	data   []byte
	failAt int64
}

func (o *failPackOps) StartPack(buf any, count int64) (PackState, error) {
	return &failPack{data: buf.([]byte)[:count], failAt: o.failAt}, nil
}

func (o *failPackOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &xorUnpack{ops: &xorOps{}, data: buf.([]byte)[:count]}, nil
}

func (p *failPack) PackedSize() (int64, error) { return int64(len(p.data)), nil }

func (p *failPack) Pack(off int64, dst []byte) (int, error) {
	if off >= p.failAt {
		return 0, errors.New("synthetic pack failure")
	}
	n := copy(dst, p.data[off:])
	if int64(n) > p.failAt-off {
		n = int(p.failAt - off)
	}
	return n, nil
}

func (p *failPack) Finish() error { return nil }

func TestPackErrorPropagatesToBothSides(t *testing.T) {
	a, b := pair(t, fabric.Config{FragSize: 512}, Config{})
	ops := &failPackOps{failAt: 1000}
	data := pattern(5000, 14)
	out := make([]byte, 5000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, 5000)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 5000, 0, ProtoEager)
	if err == nil {
		err = sr.Wait()
	}
	if err == nil {
		t.Fatal("send should fail")
	}
	if rerr := rr.Wait(); rerr == nil {
		t.Fatal("receive must observe the sender abort")
	}
}

// TestAbortBeforeFirstFragmentFailsPostedRecv: a send whose pack fails
// before its first fragment leaves (always so under Reliable, which packs
// the whole message first) sends only the abort, and the receive posted for
// the message fails instead of waiting forever.
func TestAbortBeforeFirstFragmentFailsPostedRecv(t *testing.T) {
	for _, cfg := range []Config{{}, {Reliable: true}} {
		a, b := pair(t, fabric.Config{FragSize: 1024}, cfg)
		out := make([]byte, 5000)
		rr, err := b.Recv(0, 1, exactMask, Contig{}, out, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Send(1, 1, Generic{Ops: &failPackOps{failAt: 0}}, pattern(5000, 9), 5000, 0, ProtoEager); err == nil {
			t.Fatal("send should fail")
		}
		if err := rr.WaitTimeout(5 * time.Second); err == nil || errors.Is(err, ErrTimeout) {
			t.Fatalf("Reliable=%v: posted receive of an aborted message = %v, want the sender's abort", cfg.Reliable, err)
		}
	}
}

// failUnpackOps fails on the receive side.
type failUnpackOps struct{ xorOps }

type failUnpack struct{}

func (o *failUnpackOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return failUnpack{}, nil
}

func (failUnpack) UnpackedSize() (int64, error) { return 1 << 20, nil }
func (failUnpack) Unpack(int64, []byte) error   { return errors.New("synthetic unpack failure") }
func (failUnpack) Finish() error                { return nil }

func TestUnpackErrorCompletesRecv(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	ops := &failUnpackOps{}
	data := pattern(5000, 15)
	out := make([]byte, 5000)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, 5000)
	a.Send(1, 1, Contig{}, data, -1, 0, ProtoEager)
	if err := rr.Wait(); err == nil {
		t.Fatal("unpack failure must fail the receive")
	}
}

func TestWorkerCloseFailsPending(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	a := NewWorker(f.NIC(0), Config{})
	b := NewWorker(f.NIC(1), Config{})
	out := make([]byte, 10)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, -1)
	b.Close()
	if err := rr.Wait(); !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("err = %v; want ErrWorkerClosed", err)
	}
	a.Close()
}

func TestSendInvalidDestination(t *testing.T) {
	a, _ := pair(t, fabric.Config{}, Config{})
	if _, err := a.Send(5, 1, Contig{}, []byte{1}, -1, 0, ProtoAuto); err == nil {
		t.Fatal("send to invalid rank should fail")
	}
}

func TestAuxWordDelivered(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 64})
	for _, size := range []int{16, 100000} { // eager and rndv paths
		data := pattern(size, 16)
		out := make([]byte, size)
		rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, -1)
		a.Send(1, 1, Contig{}, data, -1, 918273, ProtoAuto)
		if err := rr.Wait(); err != nil {
			t.Fatal(err)
		}
		if rr.Aux() != 918273 {
			t.Fatalf("aux = %d", rr.Aux())
		}
	}
}

var _ io.ReaderAt = nil // keep io imported for doc references
