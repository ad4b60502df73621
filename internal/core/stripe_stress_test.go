package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpicd/internal/core"
	"mpicd/internal/ucp"
)

// stripedWorldOpts sets the stripe count explicitly so the tests exercise
// the concurrent path on any host (messages here are all past the 256 KiB
// striping threshold).
func stripedWorldOpts(stripes int) core.Options {
	return core.Options{UCP: ucp.Config{PullStripes: stripes}}
}

// seqHandler is a pure-pack custom handler (identity serialization of a
// []byte buffer) that records every unpack fragment, so tests can assert
// the delivery order the inorder contract promises.
type seqHandler struct {
	mu   sync.Mutex
	offs []core.Count
	ends []core.Count
}

func (h *seqHandler) State(buf any, count core.Count) (any, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("seqHandler: want []byte, got %T", buf)
	}
	if count > int64(len(b)) {
		return nil, fmt.Errorf("seqHandler: count %d exceeds %d", count, len(b))
	}
	return b[:count], nil
}

func (h *seqHandler) FreeState(any) error { return nil }

func (h *seqHandler) PackedSize(state, _ any, count core.Count) (core.Count, error) {
	return count, nil
}

func (h *seqHandler) Pack(state, _ any, count, offset core.Count, dst []byte) (core.Count, error) {
	img := state.([]byte)
	return core.Count(copy(dst, img[offset:])), nil
}

func (h *seqHandler) Unpack(state, _ any, count, offset core.Count, src []byte) error {
	h.mu.Lock()
	h.offs = append(h.offs, offset)
	h.ends = append(h.ends, offset+core.Count(len(src)))
	h.mu.Unlock()
	img := state.([]byte)
	copy(img[offset:], src)
	return nil
}

func (h *seqHandler) RegionCount(state, _ any, count core.Count) (core.Count, error) {
	return 0, nil
}

func (h *seqHandler) Regions(state, _ any, count core.Count, regions [][]byte) error {
	return nil
}

// TestInOrderLargeMessageSequentialFallback sends a large inorder custom
// message with striping configured over a fabric that reorders packets
// (core.ReorderOptions): the sequential fallback must engage (no striped
// pulls) and the unpack callbacks must observe strictly increasing,
// gap-free offsets.
func TestInOrderLargeMessageSequentialFallback(t *testing.T) {
	sys := core.NewSystem(2, core.ReorderOptions(stripedWorldOpts(8), 42))
	defer sys.Close()

	const size = 2 << 20
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	dst := make([]byte, size)
	sendDT := core.TypeCreateCustom(&seqHandler{}, core.WithInOrder())
	rh := &seqHandler{}
	recvDT := core.TypeCreateCustom(rh, core.WithInOrder())

	done := make(chan error, 1)
	go func() {
		_, err := sys.Comm(1).Recv(dst, size, recvDT, 0, 9)
		done <- err
	}()
	if err := sys.Comm(0).Send(src, size, sendDT, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("inorder roundtrip mismatch")
	}

	stats := sys.Comm(1).Worker().Stats()
	if got := stats.StripedPulls.Load(); got != 0 {
		t.Fatalf("striped pulls = %d, want 0 for an inorder datatype", got)
	}
	if got := stats.SequentialPulls.Load(); got != 1 {
		t.Fatalf("sequential pulls = %d, want 1", got)
	}

	rh.mu.Lock()
	defer rh.mu.Unlock()
	if len(rh.offs) == 0 || rh.offs[0] != 0 {
		t.Fatalf("first unpack offset missing or nonzero: %v", rh.offs[:min(4, len(rh.offs))])
	}
	for i := 1; i < len(rh.offs); i++ {
		if rh.offs[i] <= rh.offs[i-1] {
			t.Fatalf("unpack offsets not strictly increasing at %d: %d after %d",
				i, rh.offs[i], rh.offs[i-1])
		}
		if rh.offs[i] != rh.ends[i-1] {
			t.Fatalf("unpack gap at %d: fragment ends %d, next starts %d",
				i, rh.ends[i-1], rh.offs[i])
		}
	}
	if rh.ends[len(rh.ends)-1] != size {
		t.Fatalf("last unpack ends at %d, want %d", rh.ends[len(rh.ends)-1], size)
	}
}

// regionHandler splits a []byte buffer into a callback-packed head and
// nreg zero-copy regions — the layout the paper's custom API targets. It
// is stateless apart from the buffer itself, so concurrent Pack/Unpack at
// disjoint offsets (the non-inorder contract) is safe.
type regionHandler struct {
	packed core.Count
	nreg   int
}

func (h *regionHandler) State(buf any, count core.Count) (any, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("regionHandler: want []byte, got %T", buf)
	}
	return b[:count], nil
}

func (h *regionHandler) FreeState(any) error { return nil }

func (h *regionHandler) PackedSize(state, _ any, count core.Count) (core.Count, error) {
	return h.packed, nil
}

func (h *regionHandler) Pack(state, _ any, count, offset core.Count, dst []byte) (core.Count, error) {
	img := state.([]byte)
	return core.Count(copy(dst, img[offset:h.packed])), nil
}

func (h *regionHandler) Unpack(state, _ any, count, offset core.Count, src []byte) error {
	img := state.([]byte)
	copy(img[offset:h.packed], src)
	return nil
}

func (h *regionHandler) RegionCount(state, _ any, count core.Count) (core.Count, error) {
	return core.Count(h.nreg), nil
}

func (h *regionHandler) Regions(state, _ any, count core.Count, regions [][]byte) error {
	img := state.([]byte)
	rest := img[h.packed:]
	per := len(rest) / h.nreg
	for i := 0; i < h.nreg; i++ {
		lo := i * per
		hi := lo + per
		if i == h.nreg-1 {
			hi = len(rest)
		}
		regions[i] = rest[lo:hi]
	}
	return nil
}

// TestStripedCustomConcurrentPairs exchanges large custom-datatype
// messages (packed head + regions) across 8 concurrent sender/receiver
// pairs with 4-way striping: the -race stress for concurrent pack,
// unpack and region scatter at the MPI layer.
func TestStripedCustomConcurrentPairs(t *testing.T) {
	const pairs = 8
	sys := core.NewSystem(2*pairs, stripedWorldOpts(4))
	defer sys.Close()

	const size = 1 << 20
	dt := core.TypeCreateCustom(&regionHandler{packed: 64 * 1024, nreg: 16})
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*13 + p)
		}
		dst := make([]byte, size)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var inner sync.WaitGroup
			inner.Add(1)
			go func() {
				defer inner.Done()
				if _, err := sys.Comm(2*p+1).Recv(dst, size, dt, 2*p, 3); err != nil {
					errs <- fmt.Errorf("pair %d recv: %w", p, err)
				}
			}()
			if err := sys.Comm(2*p).Send(src, size, dt, 2*p+1, 3); err != nil {
				errs <- fmt.Errorf("pair %d send: %w", p, err)
			}
			inner.Wait()
			if !bytes.Equal(dst, src) {
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
	for r := 0; r < 2*pairs; r++ {
		striped += sys.Comm(r).Worker().Stats().StripedPulls.Load()
	}
	if striped != pairs {
		t.Fatalf("striped pulls = %d, want %d", striped, pairs)
	}
}
