package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Write is the tests' one-shot producer: it copies the slices, in order,
// into a single record and reports false when Reserve refuses.
func (r *Ring) Write(payload ...[]byte) bool {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	buf, ok, _ := r.Reserve(n)
	if !ok {
		return false
	}
	at := 0
	for _, p := range payload {
		at += copy(buf[at:], p)
	}
	r.Commit(n)
	return true
}

func newTestRing(t *testing.T, capacity int) *Ring {
	t.Helper()
	r, err := AttachRing(RingMem(capacity), true)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingBasicRoundtrip(t *testing.T) {
	r := newTestRing(t, 1024)
	if !r.Write([]byte("hello"), []byte(" "), []byte("ring")) {
		t.Fatal("write into empty ring failed")
	}
	rec, ok, _ := r.Next()
	if !ok || string(rec) != "hello ring" {
		t.Fatalf("Next = %q, %v", rec, ok)
	}
	r.Advance()
	if _, ok, _ := r.Next(); ok {
		t.Fatal("drained ring still has records")
	}
	if !r.Empty() {
		t.Fatal("drained ring not empty")
	}
}

func TestRingWraparound(t *testing.T) {
	r := newTestRing(t, 1024)
	// Records sized so that after a few the next one straddles the end of
	// the data area and the producer must emit a skip marker.
	rec := make([]byte, 200)
	seq := 0
	consumed := 0
	for round := 0; round < 50; round++ {
		for {
			binary.LittleEndian.PutUint32(rec, uint32(seq))
			fillPattern(rec[4:], byte(seq))
			if !r.Write(rec) {
				break
			}
			seq++
		}
		for {
			got, ok, _ := r.Next()
			if !ok {
				break
			}
			if len(got) != len(rec) {
				t.Fatalf("record %d: length %d, want %d", consumed, len(got), len(rec))
			}
			if int(binary.LittleEndian.Uint32(got)) != consumed {
				t.Fatalf("record order broken at %d: got seq %d", consumed, binary.LittleEndian.Uint32(got))
			}
			want := make([]byte, len(rec)-4)
			fillPattern(want, byte(consumed))
			if !bytes.Equal(got[4:], want) {
				t.Fatalf("record %d payload corrupted across wrap", consumed)
			}
			r.Advance()
			consumed++
		}
	}
	if consumed < 100 {
		t.Fatalf("only %d records crossed the ring", consumed)
	}
}

func TestRingRejectsOversizedRecord(t *testing.T) {
	r := newTestRing(t, 1024)
	if _, ok, _ := r.Reserve(r.Cap()/2 + 1); ok {
		t.Fatal("Reserve above cap/2 should fail")
	}
	if r.Write(make([]byte, r.Cap())) {
		t.Fatal("oversized Write should fail")
	}
}

func TestRingFullThenDrain(t *testing.T) {
	r := newTestRing(t, 1024)
	n := 0
	for r.Write(make([]byte, 100)) {
		n++
	}
	if n == 0 {
		t.Fatal("ring accepted nothing")
	}
	// Full: the next write must fail, not overwrite.
	if r.Write(make([]byte, 100)) {
		t.Fatal("write into full ring succeeded")
	}
	for i := 0; i < n; i++ {
		if _, ok, _ := r.Next(); !ok {
			t.Fatalf("record %d missing", i)
		}
		r.Advance()
	}
	// Space is back.
	if !r.Write(make([]byte, 100)) {
		t.Fatal("write after drain failed")
	}
}

func TestRingPartialCommit(t *testing.T) {
	r := newTestRing(t, 1024)
	buf, ok, _ := r.Reserve(300)
	if !ok {
		t.Fatal("reserve failed")
	}
	// A partial pack fills fewer bytes than reserved — the record must
	// carry the committed length, not the reservation.
	copy(buf, "short")
	r.Commit(5)
	rec, ok, _ := r.Next()
	if !ok || string(rec) != "short" {
		t.Fatalf("partial commit: got %q, %v", rec, ok)
	}
	r.Advance()
	// An aborted reservation publishes nothing.
	if _, ok, _ := r.Reserve(64); !ok {
		t.Fatal("reserve failed")
	}
	r.Abort()
	if _, ok, _ := r.Next(); ok {
		t.Fatal("aborted reservation became visible")
	}
	if !r.Write([]byte("after")) {
		t.Fatal("write after abort failed")
	}
	if rec, ok, _ := r.Next(); !ok || string(rec) != "after" {
		t.Fatalf("post-abort record: %q, %v", rec, ok)
	}
}

func TestRingZeroLengthRecords(t *testing.T) {
	r := newTestRing(t, 1024)
	for i := 0; i < 3; i++ {
		if !r.Write() {
			t.Fatal("zero-length write failed")
		}
	}
	for i := 0; i < 3; i++ {
		rec, ok, _ := r.Next()
		if !ok || len(rec) != 0 {
			t.Fatalf("zero-length record %d: %v, %v", i, rec, ok)
		}
		r.Advance()
	}
}

func TestRingAttachValidation(t *testing.T) {
	if _, err := AttachRing(make([]byte, 32), true); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	mem := RingMem(4096)
	if _, err := AttachRing(mem, true); err != nil {
		t.Fatal(err)
	}
	// Second side attaches without init and sees the same geometry.
	if _, err := AttachRing(mem, false); err != nil {
		t.Fatal(err)
	}
	// A truncated view fails the capacity cross-check (and the
	// power-of-two check catches most corruptions).
	if _, err := AttachRing(mem[:len(mem)-8], false); err == nil {
		t.Fatal("truncated attach accepted")
	}
}

// TestRingConcurrentSPSC hammers the ring from one producer and one
// consumer goroutine; under -race this validates the happens-before
// edges that make the mmap'd cross-process use sound.
func TestRingConcurrentSPSC(t *testing.T) {
	r := newTestRing(t, 4096)
	const msgs = 20000
	var wg sync.WaitGroup
	var produced atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := make([]byte, 0, 256)
		for i := 0; i < msgs; i++ {
			rec = rec[:0]
			rec = binary.LittleEndian.AppendUint32(rec, uint32(i))
			rec = append(rec, make([]byte, i%200)...)
			fillPattern(rec[4:], byte(i))
			for !r.Write(rec) {
				runtime.Gosched() // full: the consumer is behind
			}
		}
		produced.Store(true)
	}()
	got := 0
	want := make([]byte, 256)
	for {
		rec, ok, _ := r.Next()
		if !ok {
			if produced.Load() && r.Empty() {
				break
			}
			runtime.Gosched()
			continue
		}
		if int(binary.LittleEndian.Uint32(rec)) != got {
			t.Fatalf("out of order: record %d carries seq %d", got, binary.LittleEndian.Uint32(rec))
		}
		if wantLen := 4 + got%200; len(rec) != wantLen {
			t.Fatalf("record %d: len %d, want %d", got, len(rec), wantLen)
		}
		fillPattern(want[:got%200], byte(got))
		if !bytes.Equal(rec[4:], want[:got%200]) {
			t.Fatalf("record %d corrupted", got)
		}
		r.Advance()
		got++
	}
	wg.Wait()
	if got != msgs {
		t.Fatalf("consumed %d of %d records", got, msgs)
	}
}

// TestRingSkipMarkerSpace exercises the corner where the skip marker's
// span itself is what makes the ring look full.
func TestRingSkipMarkerSpace(t *testing.T) {
	r := newTestRing(t, 1024)
	// Leave the producer near the end of the data area.
	pad := r.Cap() - 64
	step := 120
	for filled := 0; filled+step < pad; filled += step {
		if !r.Write(make([]byte, step-4)) {
			t.Fatal("fill write failed")
		}
		rec, ok, _ := r.Next()
		if !ok || len(rec) != step-4 {
			t.Fatalf("fill read: %d, %v", len(rec), ok)
		}
		r.Advance()
	}
	// Now a record that cannot fit before the end must wrap and still
	// round-trip intact.
	big := make([]byte, 400)
	fillPattern(big, 77)
	if !r.Write(big) {
		t.Fatal("wrapping write failed")
	}
	rec, ok, _ := r.Next()
	if !ok || !bytes.Equal(rec, big) {
		t.Fatalf("wrapped record mismatch (len %d)", len(rec))
	}
	r.Advance()
}

// TestRingWakeNoLostWakeup runs the doorbell protocol between a producer
// and a consumer goroutine, with the bell as a capacity-1 channel exactly
// as the SHM provider's wake channel: the consumer blocks only after Arm
// succeeded, the producer rings only when Bell says so. Randomized yields
// on both sides move the interleaving around, and the producer often
// waits for its record to be consumed before sending the next, so a
// consumer that ever sleeps with a record published never wakes again and
// the watchdog reports it.
func TestRingWakeNoLostWakeup(t *testing.T) {
	records := 1_000_000
	if testing.Short() {
		records = 100_000
	}
	r := newTestRing(t, 1024)
	bell := make(chan struct{}, 1)
	stop := make(chan struct{})
	defer close(stop)
	var consumed, bells, arms, sleeps atomic.Int64
	fail := make(chan string, 2)

	go func() { // producer
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < records; i++ {
			buf, ok, err := r.Reserve(8)
			for !ok {
				if err != nil {
					fail <- "producer: " + err.Error()
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				runtime.Gosched()
				buf, ok, err = r.Reserve(8)
			}
			binary.LittleEndian.PutUint64(buf, uint64(i))
			r.Commit(8)
			if rng.Intn(4) == 0 {
				runtime.Gosched() // between publishing and reading the flag
			}
			if r.Bell() {
				bells.Add(1)
				select {
				case bell <- struct{}{}:
				default:
				}
			}
			// Half the time behave like a ping-pong peer and wait for the
			// record to be consumed: then nothing follows that could ring
			// the bell a lost wake-up missed, and the stall is permanent.
			for rng.Intn(2) == 0 && consumed.Load() <= int64(i) {
				select {
				case <-stop:
					return
				default:
				}
				runtime.Gosched()
			}
		}
	}()

	done := make(chan struct{})
	go func() { // consumer
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		for got := 0; got < records; {
			rec, ok, err := r.Next()
			if err != nil {
				fail <- "consumer: " + err.Error()
				return
			}
			if ok {
				if seq := binary.LittleEndian.Uint64(rec); seq != uint64(got) {
					fail <- "record out of order"
					return
				}
				r.Advance()
				got++
				consumed.Store(int64(got))
				if rng.Intn(16) == 0 {
					runtime.Gosched()
				}
				continue
			}
			if rng.Intn(2) == 0 {
				runtime.Gosched() // between finding it empty and arming
			}
			arms.Add(1)
			if !r.Arm() {
				continue
			}
			sleeps.Add(1)
			select {
			case <-bell:
			case <-stop:
				return
			}
		}
	}()

	last := int64(-1)
	for {
		select {
		case <-done:
			if n := consumed.Load(); n != int64(records) {
				t.Fatalf("consumer stopped at %d of %d records", n, records)
			}
			if bells.Load() > arms.Load() {
				t.Fatalf("%d bells for %d declarations: each costs at most one bell", bells.Load(), arms.Load())
			}
			t.Logf("%d records, %d declarations, %d sleeps, %d bells", records, arms.Load(), sleeps.Load(), bells.Load())
			return
		case msg := <-fail:
			t.Fatal(msg)
		case <-time.After(5 * time.Second):
			if n := consumed.Load(); n == last {
				t.Fatalf("lost wake-up: no progress past record %d (consumer asleep=%v, ring empty=%v, %d sleeps, %d bells)",
					n, r.Asleep(), r.Empty(), sleeps.Load(), bells.Load())
			} else {
				last = n
			}
		}
	}
}

// TestRingCorruptLength pins the trusted-length bug: a length word that
// points past the published span (a peer killed mid-Commit, or garbage)
// used to slice the data area out of bounds and panic the consumer.
func TestRingCorruptLength(t *testing.T) {
	for _, l := range []uint32{0xFFFFFFF0, 4096, 600, ringSkipMarker} {
		mem := RingMem(1024)
		r, err := AttachRing(mem, true)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Write(make([]byte, 100)) {
			t.Fatal("write failed")
		}
		binary.LittleEndian.PutUint32(mem[RingHeaderSize:], l)
		if _, ok, err := r.Next(); ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %#x: Next = ok %v, err %v; want ErrCorrupt", l, ok, err)
		}
	}
	// Cursors that contradict each other fail both sides.
	r := newTestRing(t, 1024)
	atomic.StoreUint64(r.head, 4096)
	if _, _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("head past tail: Next err = %v", err)
	}
	if _, _, err := r.Reserve(8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("head past tail: Reserve err = %v", err)
	}
}

// FuzzRingRecords scribbles over the data area and both cursor words of
// a ring holding a few valid records, then drives the consumer and the
// producer. Whatever the words say, every call returns (an error, empty,
// or a record inside the data area): no panic, no hang.
func FuzzRingRecords(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(0), int64(0), int64(0))
	f.Add([]byte{0xf0, 0xff, 0xff, 0x7f}, uint16(56), int64(0), int64(0))
	f.Add([]byte{0, 2, 0, 0}, uint16(112), int64(0), int64(8))
	f.Add([]byte{}, uint16(0), int64(-8), int64(0))
	f.Add([]byte{}, uint16(0), int64(3), int64(1<<40))
	f.Fuzz(func(t *testing.T, scribble []byte, at uint16, headDelta, tailDelta int64) {
		const capacity = 1024
		mem := RingMem(capacity)
		r, err := AttachRing(mem, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if !r.Write(make([]byte, 40+i)) {
				t.Fatal("seed write failed")
			}
		}
		if _, ok, _ := r.Next(); ok {
			r.Advance() // head off zero, so negative deltas have room
		}
		copy(mem[RingHeaderSize+int(at)%capacity:], scribble)
		atomic.StoreUint64(r.head, atomic.LoadUint64(r.head)+uint64(headDelta))
		atomic.StoreUint64(r.tail, atomic.LoadUint64(r.tail)+uint64(tailDelta))

		// Every Advance moves head by at least 8 of at most capacity
		// published bytes, so the consumer must reach empty or an error
		// within capacity/8 records (plus one skip marker).
		steps := 0
		for ; steps <= capacity/8+1; steps++ {
			rec, ok, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next: %v is not ErrCorrupt", err)
				}
				break
			}
			if !ok {
				break
			}
			if len(rec) > capacity/2 {
				t.Fatalf("Next returned a %d-byte record from a %d-byte ring", len(rec), capacity)
			}
			r.Advance()
		}
		if steps > capacity/8+1 {
			t.Fatal("consumer neither drained the ring nor reported it corrupt")
		}
		if buf, ok, err := r.Reserve(16); err != nil {
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Reserve: ok %v, err %v", ok, err)
			}
		} else if ok {
			buf[15] = 1
			r.Commit(16)
		}
	})
}
