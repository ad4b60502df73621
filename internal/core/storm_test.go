package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// TestMessageStorm is a randomized soak: several ranks blast messages of
// random sizes (spanning eager and rendezvous) at a sink that receives
// with wildcards, verifying payload integrity and per-source ordering.
func TestMessageStorm(t *testing.T) {
	const (
		ranks    = 4
		perRank  = 120
		maxBytes = 100000
	)
	opt := Options{UCP: ucp.Config{RndvThresh: 8192}, Fabric: fabric.Config{FragSize: 2048}}
	payload := func(src, seq int) []byte {
		rng := rand.New(rand.NewSource(int64(src)*100000 + int64(seq)))
		b := make([]byte, rng.Intn(maxBytes))
		rng.Read(b)
		return b
	}
	err := Run(ranks, opt, func(c *Comm) error {
		sink := ranks - 1
		if c.Rank() != sink {
			for seq := 0; seq < perRank; seq++ {
				if err := c.Send(payload(c.Rank(), seq), -1, TypeBytes, sink, seq%7); err != nil {
					return err
				}
			}
			return nil
		}
		next := make([]int, ranks) // per-source, per-tag FIFO tracking via seq recovery
		buf := make([]byte, maxBytes)
		for i := 0; i < (ranks-1)*perRank; i++ {
			st, err := c.Recv(buf, -1, TypeBytes, AnySource, AnyTag)
			if err != nil {
				return err
			}
			// Identify which sequence number this is by regenerating the
			// expected payload for the source's next outstanding seq with
			// this tag.
			found := false
			for seq := next[st.Source]; seq < perRank; seq++ {
				if seq%7 != st.Tag {
					continue
				}
				want := payload(st.Source, seq)
				if int64(len(want)) != st.Bytes {
					continue
				}
				if bytes.Equal(buf[:st.Bytes], want) {
					found = true
					break
				}
				break
			}
			if !found {
				return fmt.Errorf("message %d from rank %d (tag %d, %d bytes) did not match any expected payload",
					i, st.Source, st.Tag, st.Bytes)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCollectivesAndP2P mixes collective rounds with concurrent
// point-to-point traffic on a dup'd communicator: context isolation must
// keep them from interfering.
func TestConcurrentCollectivesAndP2P(t *testing.T) {
	const ranks = 4
	const rounds = 20
	err := Run(ranks, Options{}, func(c *Comm) error {
		p2p, err := c.Dup()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		// Collective traffic on the parent.
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				if c.Rank() == 0 {
					copy(buf, pattern(64, byte(r)))
				}
				if err := c.Bcast(buf, -1, TypeBytes, 0); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, pattern(64, byte(r))) {
					errs <- fmt.Errorf("bcast round %d corrupted", r)
					return
				}
			}
		}()
		// Ring traffic on the dup.
		wg.Add(1)
		go func() {
			defer wg.Done()
			right := (p2p.Rank() + 1) % ranks
			left := (p2p.Rank() - 1 + ranks) % ranks
			out := make([]byte, 128)
			for r := 0; r < rounds; r++ {
				mine := pattern(128, byte(p2p.Rank()*rounds+r))
				want := pattern(128, byte(left*rounds+r))
				if _, err := p2p.SendRecv(mine, -1, TypeBytes, right, 5, out, -1, TypeBytes, left, 5); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(out, want) {
					errs <- fmt.Errorf("ring round %d corrupted", r)
					return
				}
			}
		}()
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// structSimpleDDT builds the Listing 7 struct type for tests.
func structSimpleDDT(t *testing.T) *ddt.Type {
	t.Helper()
	st, err := ddt.Struct([]int{3, 1}, []int64{0, 16}, []*ddt.Type{ddt.Int32, ddt.Float64})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBcastDerivedDatatype broadcasts a gapped struct image: collectives
// compose with the datatype engine.
func TestBcastDerivedDatatype(t *testing.T) {
	st := structSimpleDDT(t)
	dt := FromDDT(st)
	const count = 25
	err := Run(3, Options{}, func(c *Comm) error {
		img := make([]byte, st.Span(count))
		if c.Rank() == 1 {
			copy(img, pattern(int(st.Span(count)), 9))
		}
		if err := c.Bcast(img, count, dt, 1); err != nil {
			return err
		}
		// Compare packed forms (gaps don't travel).
		want := make([]byte, st.PackedSize(count))
		ref := pattern(int(st.Span(count)), 9)
		st.Pack(ref, count, want)
		got := make([]byte, st.PackedSize(count))
		st.Pack(img, count, got)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: ddt bcast mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
