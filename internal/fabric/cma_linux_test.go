package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os/exec"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cmaMesh is shmMesh for the tests of the in-place path: skipped when the
// run forces the window, or when this host refuses process_vm_readv.
func cmaMesh(t *testing.T, n int, cfg Config) []*SHM {
	t.Helper()
	if *forceWindow {
		t.Skip("-shm.window: the in-place path is switched off")
	}
	nics := shmMesh(t, n, cfg)
	probe := make([]byte, 64)
	key := nics[0].Register(Bytes(probe))
	defer nics[0].Deregister(key)
	if err := nics[1].Get(0, key, 0, Bytes(make([]byte, 64)), 0, 64); err != nil {
		t.Fatal(err)
	}
	if nics[1].cmaOff.Load() {
		t.Skip("process_vm_readv is refused on this host")
	}
	return nics
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// carve cuts buf into regions of the given lengths, repeated to its end.
func carve(buf []byte, lens ...int) [][]byte {
	var out [][]byte
	for i := 0; len(buf) > 0; i++ {
		n := min(lens[i%len(lens)], len(buf))
		out = append(out, buf[:n:n])
		buf = buf[n:]
	}
	return out
}

// headTail is a stream whose first bytes only callbacks reach and whose
// rest is a region list: the shape of a custom datatype. As a sink it is
// inorder — its regions must not be asked for before the head is in.
type headTail struct {
	t    *testing.T
	head []byte
	tail *Iov
	in   int // head bytes written
	sink bool
}

func (h *headTail) Size() int64 { return int64(len(h.head)) + h.tail.Size() }

func (h *headTail) ReadAt(dst []byte, off int64) (int, error) {
	n := 0
	if off < int64(len(h.head)) {
		n = copy(dst, h.head[off:])
	}
	if n == len(dst) {
		return n, nil
	}
	m, err := h.tail.ReadAt(dst[n:], off+int64(n)-int64(len(h.head)))
	return n + m, err
}

func (h *headTail) WriteAt(src []byte, off int64) (int, error) {
	n := 0
	if off < int64(len(h.head)) {
		if int(off) != h.in {
			h.t.Errorf("head written at %d after %d bytes: out of order", off, h.in)
		}
		n = copy(h.head[off:], src)
		h.in += n
	}
	if n == len(src) {
		return n, nil
	}
	m, err := h.tail.WriteAt(src[n:], off+int64(n)-int64(len(h.head)))
	return n + m, err
}

func (h *headTail) Window(off, n int64) ([]byte, bool) {
	if off < int64(len(h.head)) {
		return nil, false
	}
	if h.sink && h.in < len(h.head) {
		h.t.Errorf("regions asked for at %d with %d of %d head bytes in", off, h.in, len(h.head))
	}
	return h.tail.Window(off-int64(len(h.head)), n)
}

// walkedHeadTail is headTail handing its tail over to the walk, as a
// datatype binding does, and counting the bytes that reach it through
// WriteAt.
type walkedHeadTail struct {
	*headTail
	written int64
}

func (w *walkedHeadTail) RegionTail(off int64) (int64, *Iov) {
	base := int64(len(w.head))
	if off < base {
		return base, nil
	}
	if w.sink && w.in < len(w.head) {
		w.t.Errorf("tail handed over at %d with %d of %d head bytes in", off, w.in, len(w.head))
	}
	return base, w.tail
}

func (w *walkedHeadTail) WriteAt(src []byte, off int64) (int, error) {
	w.written += int64(len(src))
	return w.headTail.WriteAt(src, off)
}

func TestCMAGetShapes(t *testing.T) {
	const n = 1 << 20
	data := randBytes(n, 1)
	iov := func(b []byte, lens ...int) *Iov { return NewIov(carve(b, lens...)) }
	mixed := func(b []byte, head int, sink bool, lens ...int) *headTail {
		return &headTail{t: t, head: b[:head:head], tail: iov(b[head:], lens...), sink: sink}
	}
	walked := func(b []byte, head int, sink bool, lens ...int) *walkedHeadTail {
		return &walkedHeadTail{headTail: mixed(b, head, sink, lens...)}
	}
	cases := []struct {
		name       string
		src        func(b []byte) Source
		sink       func(b []byte) Sink
		off, count int64 // the range pulled; count 0: all of it
	}{
		{"bytes-bytes", func(b []byte) Source { return Bytes(b) }, func(b []byte) Sink { return Bytes(b) }, 0, 0},
		{"iov-iov", func(b []byte) Source { return iov(b, 8192) }, func(b []byte) Sink { return iov(b, 8192) }, 0, 0},
		{"iov-bytes", func(b []byte) Source { return iov(b, 8192, 100) }, func(b []byte) Sink { return Bytes(b) }, 0, 0},
		{"bytes-iov", func(b []byte) Source { return Bytes(b) }, func(b []byte) Sink { return iov(b, 3, 70000) }, 0, 0},
		// More than IOV_MAX ranges a side, on boundaries that never agree.
		{"iov-iov-batched", func(b []byte) Source { return iov(b, 300, 17, 1) }, func(b []byte) Sink { return iov(b, 256, 31) }, 0, 0},
		{"head+regions", func(b []byte) Source { return mixed(b, 2052, false, 8192) }, func(b []byte) Sink { return mixed(b, 2052, true, 8192) }, 0, 0},
		{"long-head", func(b []byte) Source { return mixed(b, 40000, false, 8192) }, func(b []byte) Sink { return mixed(b, 40000, true, 4096) }, 0, 0},
		{"head-to-bytes", func(b []byte) Source { return mixed(b, 100, false, 1000) }, func(b []byte) Sink { return Bytes(b) }, 0, 0},
		{"bytes-to-head", func(b []byte) Source { return Bytes(b) }, func(b []byte) Sink { return mixed(b, 70000, true, 1000) }, 0, 0},
		{"walked-head+regions", func(b []byte) Source { return walked(b, 2052, false, 8192) }, func(b []byte) Sink { return walked(b, 2052, true, 300, 17) }, 0, 0},
		{"walked-long-head", func(b []byte) Source { return walked(b, 40000, false, 8192) }, func(b []byte) Sink { return walked(b, 70000, true, 4096) }, 0, 0},
		{"walked-sub-range", func(b []byte) Source { return walked(b, 64, false, 4096) }, func(b []byte) Sink { return walked(b, 40, false, 1000) }, 60, 1000},
		{"sub-range", func(b []byte) Source { return iov(b, 8192) }, func(b []byte) Sink { return iov(b, 5000) }, 123457, 400001},
		{"sub-range-small", func(b []byte) Source { return mixed(b, 64, false, 4096) }, func(b []byte) Sink { return Bytes(b) }, 60, 1000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nics := cmaMesh(t, 2, Config{})
			before := nics[1].cmaPulls.Load()
			key := nics[0].Register(c.src(bytes.Clone(data)))
			out := make([]byte, n)
			off, count := c.off, c.count
			if count == 0 {
				count = n
			}
			if err := nics[1].Get(0, key, off, c.sink(out), off, count); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[off:off+count], data[off:off+count]) {
				t.Fatal("pulled bytes differ")
			}
			if !bytes.Equal(out[:off], make([]byte, off)) || !bytes.Equal(out[off+count:], make([]byte, n-off-count)) {
				t.Fatal("bytes landed outside the range asked for")
			}
			if w, p := nics[1].winPulls.Load(), nics[1].cmaPulls.Load()-before; w != 0 || p != 1 {
				t.Fatalf("winPulls = %d, cmaPulls = %d; want 0 and 1", w, p)
			}
			nics[0].Deregister(key)
			if err := nics[1].Get(0, key, off, c.sink(out), off, count); err == nil {
				t.Fatal("Get of a deregistered key succeeded")
			}
			// The refusal came over the socket, whose read loops give their
			// frames back a moment after the Get returns.
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				n := nics[0].PoolOutstanding() + nics[1].PoolOutstanding()
				if n == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d pool buffers still out", n)
				}
			}
		})
	}
}

// An in-place receive bounces only the sink's head: a step without a
// window stops where the sink's region tail begins, so the tail bytes are
// read into its regions once and never pass through WriteAt.
func TestCMALandBouncesOnlyTheHead(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	data := randBytes(256<<10, 3)
	key := nics[0].Register(NewIov(carve(bytes.Clone(data), 8192)))
	defer nics[0].Deregister(key)
	for _, head := range []int{1, 2052, cmaBounce - 1, cmaBounce + 7} {
		out := make([]byte, len(data))
		sink := &walkedHeadTail{headTail: &headTail{t: t, head: out[:head:head], tail: NewIov(carve(out[head:], 4096, 13)), sink: true}}
		before := nics[1].cmaPulls.Load()
		if err := nics[1].Get(0, key, 0, sink, 0, int64(len(out))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) || nics[1].cmaPulls.Load() != before+1 {
			t.Fatalf("head %d: equal=%v, in-place pulls %d", head, bytes.Equal(out, data), nics[1].cmaPulls.Load()-before)
		}
		if sink.written != int64(head) {
			t.Fatalf("head %d: %d bytes went through WriteAt, want the head's %d", head, sink.written, head)
		}
	}
}

// A pack callback runs once however the pull goes: the window serves the
// head a registration staged, and the rest from the source — whether the
// requester cannot read in place, or the head proved too long to publish.
func TestCMAStagedHeadServesWindowToo(t *testing.T) {
	for _, c := range []struct {
		name      string
		head      int
		requester bool // the requester may read in place
	}{{"requester-refused", 5000, false}, {"head-past-staging", 100 << 10, true}} {
		t.Run(c.name, func(t *testing.T) {
			nics := cmaMesh(t, 2, Config{})
			data := randBytes(300<<10, 2)
			calls := 0
			src := &countingHead{headTail: headTail{t: t, head: data[:c.head:c.head], tail: NewIov(carve(data[c.head:], 8192))}, calls: &calls}
			key := nics[0].Register(src)
			defer nics[0].Deregister(key)
			if published := regSlot(nics[0].regTab, key)[0] == key; published != (c.head <= cmaMaxHead) {
				t.Fatalf("published = %v with a %d-byte head", published, c.head)
			}
			if !c.requester {
				noCMA(nics[1])
			}
			out := make([]byte, len(data))
			if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) || nics[1].winPulls.Load() != 1 {
				t.Fatalf("window pull of a staged registration: equal=%v winPulls=%d", bytes.Equal(out, data), nics[1].winPulls.Load())
			}
			if calls != 1 {
				t.Fatalf("head packed from offset 0 %d times, want once", calls)
			}
			// The serve is done with the staging once it lets go of the window;
			// the race detector cannot see that through a socket, so show it
			// the lock.
			nics[0].winMu.Lock()
			w := nics[0].winOuts[1]
			nics[0].winMu.Unlock()
			w.mu.Lock()
			w.mu.Unlock()
		})
	}
}

type countingHead struct {
	headTail
	calls *int
}

func (c *countingHead) ReadAt(dst []byte, off int64) (int, error) {
	if off == 0 {
		*c.calls++
	}
	return c.headTail.ReadAt(dst, off)
}

// Deregister racing a Get: the Get succeeds with the registered bytes or
// fails; it never succeeds with what the memory held afterwards.
func TestCMADeregisterRacesGet(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	const n = 2 << 20
	want := randBytes(n, 3)
	mem := make([]byte, n)
	out := make([]byte, n)
	okays, misses := 0, 0
	for i := 0; i < 200; i++ {
		copy(mem, want)
		key := nics[0].Register(NewIov(carve(mem, 64<<10)))
		done := make(chan error, 1)
		go func() { done <- nics[1].Get(0, key, 0, Bytes(out), 0, n) }()
		time.Sleep(time.Duration(i%20) * 20 * time.Microsecond)
		nics[0].Deregister(key)
		clear(mem) // the exporter's memory moves on
		err := <-done
		switch {
		case err == nil && !bytes.Equal(out, want):
			t.Fatalf("round %d: Get succeeded with bytes written after Deregister", i)
		case err == nil:
			okays++
		default:
			misses++
		}
	}
	// A Get that finds the slot already cleared asks over the socket, where
	// the key is gone too: Deregister drops it there first.
	t.Logf("%d pulls finished before Deregister, %d were refused", okays, misses)
}

// The table is direct-mapped: with regSlots registrations alive the next
// key names a slot in use, stays unpublished and is served by the window.
func TestCMAFullTableFallsBack(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	data := randBytes(128<<10, 4)
	keys := make([]uint64, regSlots)
	for i := range keys {
		keys[i] = nics[0].Register(Bytes(data))
	}
	extra := nics[0].Register(Bytes(data))
	for _, key := range []uint64{keys[0], extra, keys[regSlots-1]} {
		out := make([]byte, len(data))
		if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("key %d: err=%v equal=%v", key, err, bytes.Equal(out, data))
		}
	}
	if w := nics[1].winPulls.Load(); w != 1 {
		t.Fatalf("winPulls = %d, want 1: only the colliding key takes the window", w)
	}
	// Its slot's owner leaving does not publish it after the fact, and the
	// slot serves the next key that names it.
	nics[0].Deregister(extra)
	for _, key := range keys {
		nics[0].Deregister(key)
	}
	for i := 0; i < regSlots; i++ {
		key := nics[0].Register(Bytes(data))
		if i%64 == 0 {
			out := make([]byte, len(data))
			if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("key %d after the table drained: err=%v", key, err)
			}
		}
		nics[0].Deregister(key)
	}
	if w := nics[1].winPulls.Load(); w != 1 {
		t.Fatalf("winPulls = %d after the table drained, want still 1", w)
	}
}

// A respawned rank's table is a new file and its keys carry the new
// incarnation: the survivor drops the dead one's mapping on revival, and a
// key of epoch n matches no slot of epoch n+1 even where the two collide.
func TestCMARevivedPeerMappingDropped(t *testing.T) {
	nics := cmaMesh(t, 2, Config{DialTimeout: 2 * time.Second})
	a, dir := nics[0], nics[1].dir
	data := randBytes(256<<10, 5)
	out := make([]byte, len(data))
	oldKey := nics[1].Register(Bytes(data))
	if err := a.Get(1, oldKey, 0, Bytes(out), 0, int64(len(out))); err != nil {
		t.Fatal(err)
	}
	oldTab := a.regIns[1]
	nics[1].Close()

	b, err := NewSHM(1, 2, dir, Config{Epoch: 1, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.ReviveRank(1)
	a.winMu.Lock()
	kept := a.regIns[1] != nil
	a.winMu.Unlock()
	if kept {
		t.Fatal("ReviveRank kept the dead incarnation's table mapped")
	}
	fresh := randBytes(len(data), 6)
	var newKey uint64
	for newKey%regSlots != oldKey%regSlots || newKey == 0 { // same slot, next epoch
		newKey = b.Register(Bytes(fresh))
	}
	if newKey>>32 != 1 {
		t.Fatalf("key %#x of epoch 1 does not carry it", newKey)
	}
	pulls := a.cmaPulls.Load()
	if err := a.Get(1, newKey, 0, Bytes(out), 0, int64(len(out))); err != nil || !bytes.Equal(out, fresh) {
		t.Fatalf("pull from the new incarnation: err=%v equal=%v", err, bytes.Equal(out, fresh))
	}
	if a.cmaPulls.Load() != pulls+1 || &a.regIns[1][0] == &oldTab[0] {
		t.Fatal("the new incarnation was not read in place through its own table")
	}
	if err := a.Get(1, oldKey, 0, Bytes(out), 0, int64(len(out))); err == nil {
		t.Fatal("a key of the dead incarnation matched a slot of the new one")
	}
	if !bytes.Equal(out, fresh) {
		t.Fatal("the refused Get wrote into its sink")
	}
}

// What the kernel says about the exporter decides the error: a pid that
// is gone is a dead rank, a host that refuses the call switches the path
// off for good and the window answers, this time and from then on.
func TestCMAErrnoMapping(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	data := randBytes(128<<10, 7)
	out := make([]byte, len(data))
	key := nics[0].Register(Bytes(data))

	child := exec.Command("true")
	if err := child.Run(); err != nil {
		t.Skip("no child process to take a dead pid from:", err)
	}
	sl := regSlot(nics[0].regTab, key)
	sl[1] = sl[1]&^0xFFFFFFFF | uint64(child.Process.Pid)
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); !errors.Is(err, ErrRankDead) {
		t.Fatalf("Get from a pid that exited: %v, want ErrRankDead", err)
	}
	sl[1] = sl[1]&^0xFFFFFFFF | selfPID

	// An entry that lies about its length is a short read, not a success.
	sl[3] -= 4096
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); !errors.Is(err, ErrShortTransfer) {
		t.Fatalf("Get past a region's listed end: %v, want ErrShortTransfer", err)
	}
	sl[3] += 4096

	nr := sysProcessVMReadv
	sysProcessVMReadv = 0 // ENOSYS
	defer func() { sysProcessVMReadv = nr }()
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("Get on a host without the call: err=%v equal=%v", err, bytes.Equal(out, data))
	}
	if !nics[1].cmaOff.Load() || nics[1].winPulls.Load() != 1 {
		t.Fatalf("cmaOff=%v winPulls=%d, want the path off and one window pull", nics[1].cmaOff.Load(), nics[1].winPulls.Load())
	}
	sysProcessVMReadv = nr
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil || nics[1].winPulls.Load() != 2 {
		t.Fatalf("the refusal did not stick: err=%v winPulls=%d", err, nics[1].winPulls.Load())
	}
	if k2 := nics[1].Register(Bytes(data)); regSlot(nics[1].regTab, k2)[0] != 0 {
		t.Fatal("a provider that cannot read in place still publishes")
	}
}

// Striped pulls are concurrent Gets of one key at disjoint ranges.
func TestCMAConcurrentStripes(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	data := randBytes(4<<20, 8)
	key := nics[0].Register(NewIov(carve(data, 8192)))
	out := make([]byte, len(data))
	sink := NewIov(carve(out, 10000))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) << 20
			errs[i] = nics[1].Get(0, key, off, sink, off, 1<<20)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
	}
	if !bytes.Equal(out, data) || nics[1].winPulls.Load() != 0 {
		t.Fatalf("striped pull: equal=%v winPulls=%d", bytes.Equal(out, data), nics[1].winPulls.Load())
	}
}

// A source that fails while its head is staged is registered as it is:
// the pull meets the failure on the window path and reports it.
func TestCMAExportErrorLeavesPlainRegistration(t *testing.T) {
	nics := cmaMesh(t, 2, Config{})
	src := &failingHead{headTail{t: t, head: make([]byte, 100), tail: NewIov(carve(make([]byte, 100<<10), 4096))}}
	key := nics[0].Register(src)
	defer nics[0].Deregister(key)
	if regSlot(nics[0].regTab, key)[0] != 0 {
		t.Fatal("a source whose head cannot be packed was published")
	}
	err := nics[1].Get(0, key, 0, Bytes(make([]byte, src.Size())), 0, src.Size())
	if err == nil || nics[0].PoolOutstanding() != 0 {
		t.Fatalf("err=%v outstanding=%d, want the pack failure and no staging left out", err, nics[0].PoolOutstanding())
	}
}

type failingHead struct{ headTail }

func (f *failingHead) ReadAt(dst []byte, off int64) (int, error) {
	return 0, io.ErrUnexpectedEOF
}

// FuzzRegTable feeds arbitrary slot and list bytes to the requester-side
// parser: whatever a peer's memory holds, the answer is a refusal or a
// list that reads exactly what the Get asked for, out of entries it was
// given, without a panic or an allocation sized by foreign data.
func FuzzRegTable(f *testing.F) {
	word := func(v ...uint64) []byte {
		b := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		return b
	}
	f.Add(word(7, 42|1<<32, 0x1000, 4096), []byte(nil), uint64(7), int64(0), int64(4096))
	f.Add(word(7, 42|2<<32, 0x1000, 32), word(0x2000, 100, 0x3000, 200), uint64(7), int64(50), int64(250))
	f.Add(word(7, 42|3<<32, 0x1000, 48), word(0x2000, 0, 0x3000, ^uint64(0), 1, 1), uint64(7), int64(1), int64(1)<<62)
	f.Add(word(9, 1<<40, 0, 0), word(1, 2), uint64(9), int64(-1), int64(0))
	f.Fuzz(func(t *testing.T, slot, list []byte, key uint64, off, size int64) {
		var w [4]uint64
		for i := range w {
			if len(slot) >= 8*(i+1) {
				w[i] = binary.LittleEndian.Uint64(slot[8*i:])
			}
		}
		pid, count, body, ok := parseSlot(w, key)
		if !ok {
			return
		}
		if pid <= 0 || count < 1 || count > cmaMaxRegions || (count > 1 && body.len != uint64(count)*16) {
			t.Fatalf("parseSlot accepted pid %d count %d body %+v", pid, count, body)
		}
		tab := []iovec{body}
		if count > 1 {
			// What the list read would have brought in: count entries of
			// whatever the exporter's memory held there.
			tab = make([]iovec, count)
			for i := range tab {
				if len(list) >= 16*(i+1) {
					tab[i] = iovec{binary.LittleEndian.Uint64(list[16*i:]), binary.LittleEndian.Uint64(list[16*i+8:])}
				}
			}
		}
		given := len(tab)
		rem, ok := clipRegions(tab, off, size)
		if !ok {
			return
		}
		if off < 0 || size <= 0 || len(rem) > given || iovBytes(rem) != uint64(size) {
			t.Fatalf("clipRegions(off %d, size %d) returned %d entries of %d holding %d bytes", off, size, len(rem), given, iovBytes(rem))
		}
		// Batching walks the same foreign lengths: cut and advance must
		// consume exactly size bytes and stop.
		for left := uint64(size); left > 0; {
			r := rem[:min(len(rem), cmaMaxIov)]
			n := iovBytes(r)
			if n == 0 || n > left {
				t.Fatalf("batch of %d bytes with %d left", n, left)
			}
			k, rest := iovCut(r, n)
			if iovBytes(r[:k]) != n {
				t.Fatalf("iovCut kept %d bytes, want %d", iovBytes(r[:k]), n)
			}
			rem = iovAdvance(rem, k, rest)
			left -= n
		}
		if len(rem) != 0 && iovBytes(rem) != 0 {
			t.Fatalf("%d bytes listed beyond the Get", iovBytes(rem))
		}
	})
}

// BenchmarkCMARegister times Register+Deregister of a 513-region source,
// the struct-vec shape at 4 MiB: one walk over the windows into a pooled
// list (the budget is 10 µs; a list grown by append from nothing took 100).
func BenchmarkCMARegister(b *testing.B) {
	dir := b.TempDir()
	nic, err := NewSHM(0, 2, dir, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer nic.Close()
	for _, regions := range []int{1, 513} {
		src := NewIov(carve(make([]byte, regions*8192), 8192))
		b.Run(map[int]string{1: "contiguous", 513: "513-regions"}[regions], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nic.Deregister(nic.Register(src))
			}
		})
	}
}
