package ucp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpicd/internal/fabric"
)

// stripeCfg sets the stripe count explicitly so tests exercise the fan-out
// regardless of GOMAXPROCS; messages of 256 KiB and more stripe.
func stripeCfg(stripes int) Config {
	return Config{PullStripes: stripes}
}

func TestStripedPullContig(t *testing.T) {
	a, b := pair(t, fabric.Config{}, stripeCfg(4))
	const size = 1 << 20
	data := pattern(size, 3)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, size)
	sr, err := a.Send(1, 1, Contig{}, data, size, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("striped contig roundtrip mismatch")
	}
	if got := b.Stats().StripedPulls.Load(); got != 1 {
		t.Fatalf("striped pulls = %d, want 1", got)
	}
	if got := b.Stats().PullStripeSegs.Load(); got != 4 {
		t.Fatalf("stripe segments = %d, want 4", got)
	}
	if got := b.Stats().SequentialPulls.Load(); got != 0 {
		t.Fatalf("sequential pulls = %d, want 0", got)
	}
}

func TestStripedPullBypassBelowThreshold(t *testing.T) {
	a, b := pair(t, fabric.Config{}, stripeCfg(4))
	const size = 48 * 1024 // above RndvThresh, below the striping threshold
	data := pattern(size, 4)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, size)
	sr, err := a.Send(1, 1, Contig{}, data, size, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("roundtrip mismatch")
	}
	if got := b.Stats().SequentialPulls.Load(); got != 1 {
		t.Fatalf("sequential pulls = %d, want 1", got)
	}
	if got := b.Stats().StripedPulls.Load(); got != 0 {
		t.Fatalf("striped pulls = %d, want 0", got)
	}
}

func TestStripedPullGenericUnordered(t *testing.T) {
	a, b := pair(t, fabric.Config{}, stripeCfg(8))
	ops := &xorOps{key: 0x3C}
	const size = 512 * 1024
	data := pattern(size, 5)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, size)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, size, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("striped generic roundtrip mismatch")
	}
	if got := b.Stats().StripedPulls.Load(); got != 1 {
		t.Fatalf("striped pulls = %d, want 1", got)
	}
}

// TestStripedPullInOrderFallsBack pins the `inorder ⇒ ordered head` rule
// for a sink that orders all of itself: an InOrder generic sink never
// stripes, and its unpack callbacks see strictly increasing, gap-free
// offsets even with striping configured.
func TestStripedPullInOrderFallsBack(t *testing.T) {
	a, b := pair(t, fabric.Config{}, stripeCfg(8))
	ops := &xorOps{key: 0x77}
	const size = 512 * 1024
	data := pattern(size, 6)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops, InOrder: true}, out, size)
	sr, err := a.Send(1, 1, Generic{Ops: ops, InOrder: true}, data, size, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("inorder roundtrip mismatch")
	}
	if got := b.Stats().StripedPulls.Load(); got != 0 {
		t.Fatalf("striped pulls = %d, want 0 (inorder must stay sequential)", got)
	}
	if got := b.Stats().SequentialPulls.Load(); got != 1 {
		t.Fatalf("sequential pulls = %d, want 1", got)
	}
	ops.mu.Lock()
	defer ops.mu.Unlock()
	if len(ops.offsets) == 0 || ops.offsets[0] != 0 {
		t.Fatalf("first unpack offset = %v, want 0", ops.offsets)
	}
	for i := 1; i < len(ops.offsets); i++ {
		if ops.offsets[i] <= ops.offsets[i-1] {
			t.Fatalf("unpack offsets not strictly increasing: %d then %d",
				ops.offsets[i-1], ops.offsets[i])
		}
	}
}

// failAtOps fails Unpack for any fragment covering failOff, exercising
// first-error-wins across concurrent stripes.
type failAtOps struct {
	xorOps
	failOff int64
}

func (o *failAtOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &failAtUnpack{ops: o, data: buf.([]byte)[:count]}, nil
}

type failAtUnpack struct {
	ops  *failAtOps
	data []byte
}

func (u *failAtUnpack) UnpackedSize() (int64, error) { return int64(len(u.data)), nil }

func (u *failAtUnpack) Unpack(off int64, src []byte) error {
	if off <= u.ops.failOff && u.ops.failOff < off+int64(len(src)) {
		return fmt.Errorf("unpack poisoned at %d", u.ops.failOff)
	}
	copy(u.data[off:], src)
	return nil
}

func (u *failAtUnpack) Finish() error { return nil }

func TestStripedPullFirstErrorWins(t *testing.T) {
	a, b := pair(t, fabric.Config{}, stripeCfg(4))
	ops := &failAtOps{failOff: 300 * 1024}
	const size = 512 * 1024
	data := pattern(size, 7)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Generic{Ops: ops}, out, size)
	sr, err := a.Send(1, 1, Generic{Ops: ops}, data, size, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Wait(); err == nil {
		t.Fatal("receive succeeded despite poisoned unpack")
	}
	// The FIN carries the failure status back to the sender.
	if err := sr.Wait(); err == nil {
		t.Fatal("send succeeded despite remote receive failure")
	}
}

// TestStripedPullConcurrentPairs runs 8 sender/receiver pairs at once,
// each striping a 1 MiB pull 4 ways: the -race stress for the fan-out.
func TestStripedPullConcurrentPairs(t *testing.T) {
	const pairs = 8
	f := fabric.NewInproc(2*pairs, fabric.Config{})
	ws := make([]*Worker, 2*pairs)
	for i := range ws {
		ws[i] = NewWorker(f.NIC(i), stripeCfg(4))
	}
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	const size = 1 << 20
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		sender, receiver := ws[2*p], ws[2*p+1]
		data := pattern(size, byte(p))
		out := make([]byte, size)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rr, err := receiver.Recv(2*p, 1, exactMask, Contig{}, out, size)
			if err != nil {
				errs <- err
				return
			}
			sr, err := sender.Send(2*p+1, 1, Contig{}, data, size, 0, ProtoRndv)
			if err != nil {
				errs <- err
				return
			}
			if err := WaitAll(sr, rr); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out, data) {
				errs <- fmt.Errorf("pair %d roundtrip mismatch", p)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	striped := int64(0)
	for _, w := range ws {
		striped += w.Stats().StripedPulls.Load()
	}
	if striped != pairs {
		t.Fatalf("striped pulls = %d, want %d", striped, pairs)
	}
}
