//go:build linux

package fabric

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Cross-memory attach: the SHM provider's in-place rendezvous. A rank
// publishes where a registered source's bytes lie in its own address
// space, and a peer's Get reads them from there with process_vm_readv(2)
// into the sink's own windows: one copy, on the caller's goroutine, with
// no frame on the socket and nothing for the exporter to do.
//
// Each rank owns one shared segment, the registration table reg-<rank>:
// regSlots slots of four words, the slot of a key being key % regSlots.
//
//	word 0  key    — 0 while the slot is free
//	word 1  pid | count<<32
//	word 2  addr   — count 1: the region; else the exporter's region list
//	word 3  len    — count 1: the region's; else count*16, the list's
//
// The region list is an array of (addr, len) pairs in the exporter's
// memory — struct iovec, as it happens — which the requester reads with the
// same call before it reads what the list names. Only the owner writes its
// table: Register fills words 1-3 of a free slot and then stores the key,
// Deregister stores 0 before it lets go of the memory. A requester loads
// the key, the body, and the key again before it reads (any mismatch: the
// window path answers instead) and once more after (a mismatch now means
// the bytes may postdate the registration: ErrBadKey). Keys are never
// reused and carry the incarnation in their high half, so a slot cannot
// change hands unnoticed, and everything a requester takes from a slot or
// a list is checked as foreign data before it sizes or indexes anything.
const (
	regSlots      = 256
	regTabBytes   = regSlots * 32
	cmaMaxIov     = 1024     // IOV_MAX: ranges a side per process_vm_readv
	cmaMaxRegions = 1 << 16  // regions one registration may list
	cmaMaxHead    = 64 << 10 // callback-backed prefix Register will stage
	cmaBounce     = 64 << 10 // step through a sink range without a window
)

// sysProcessVMReadv is the call's number; 0 where it is not known.
var sysProcessVMReadv = map[string]uintptr{"amd64": 310, "arm64": 270, "riscv64": 270, "loong64": 270}[runtime.GOARCH]

var selfPID = uint64(os.Getpid())

// iovec is struct iovec on a 64-bit kernel and an entry of a region list.
type iovec struct{ base, len uint64 }

func iovOf(b []byte) iovec {
	return iovec{uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b)))), uint64(len(b))}
}

// iovOfList is the memory of a region list itself: what a slot of several
// regions points at, and where a requester reads that list into.
func iovOfList(v []iovec) iovec {
	return iovec{uint64(uintptr(unsafe.Pointer(unsafe.SliceData(v)))), uint64(len(v)) * 16}
}

// iovPool recycles region lists: a registration's, and the two sides of a
// Get.
var iovPool = sync.Pool{New: func() any { return new([]iovec) }}

func shmRegPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("reg-%d", rank))
}

// regSlot returns the four words of key's slot in a mapped table.
func regSlot(tab []byte, key uint64) *[4]uint64 {
	return (*[4]uint64)(unsafe.Pointer(&tab[key%regSlots*32]))
}

// cmaInit creates this rank's registration table. Without one nothing is
// published and every Get toward this rank takes the window.
func (s *SHM) cmaInit() {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	var err error
	if s.regTab, err = s.mapSeg(shmRegPath(s.dir, s.rank), regTabBytes, true); err != nil {
		s.cmaOff.Store(true)
	}
}

// cmaClose withdraws every registration: a closed endpoint serves no Get.
// Caller holds winMu, and unmaps only afterwards.
func (s *SHM) cmaClose() {
	if s.regTab != nil {
		for k := uint64(0); k < regSlots; k++ {
			atomic.StoreUint64(&regSlot(s.regTab, k)[0], 0)
		}
	}
	s.regTab = nil
	clear(s.regIns)
}

// cmaReg is a published registration: the source, which it keeps
// reachable — and so in place — while peers read it, the region list, and
// the staging of a callback-backed prefix. It stands in for the source in
// the stream core's table, so the window path serves the same staged
// bytes and a pack callback runs once whichever way a pull goes.
type cmaReg struct {
	src  Source
	head *Packet  // the first hlen bytes, packed; nil without a prefix
	hlen int64    // bytes staged in head
	n    int      // regions listed; 0: not to be published
	one  iovec    // the region when n is 1
	list *[]iovec // the regions when n is more, pooled
}

func (r *cmaReg) Size() int64 { return r.src.Size() }

func (r *cmaReg) ReadAt(dst []byte, off int64) (int, error) {
	n := 0
	if off >= 0 && off < r.hlen {
		if n = copy(dst, r.head.Payload[off:r.hlen]); n == len(dst) {
			return n, nil
		}
	}
	m, err := r.src.ReadAt(dst[n:], off+int64(n))
	return n + m, err
}

func (r *cmaReg) release() {
	if r.head != nil {
		r.head.Release()
	}
	if r.list != nil {
		iovPool.Put(r.list)
	}
}

// export lists where src's bytes lie: one walk over its windows. A range
// at the front that has no window (a custom datatype's packed head) is
// packed into staging, a fragment at a time as the eager path would, and
// listed like a region. nil: not a source a peer can read in place, and
// nothing of it was packed.
func (s *SHM) export(src Source) *cmaReg {
	size := src.Size()
	sw := walk(src, 0)
	if !sw.direct() || size <= 0 || s.cmaOff.Load() {
		return nil
	}
	r := &cmaReg{src: src}
	lp := iovPool.Get().(*[]iovec)
	list, off := (*lp)[:0], int64(0)
	for off < size {
		if w := sw.window(off, size-off); len(w) > 0 {
			if len(list) == cmaMaxRegions {
				break
			}
			list = append(list, iovOf(w))
			off += int64(len(w))
			continue
		}
		if off != r.hlen || off >= cmaMaxHead {
			break // a gap behind the front, or too much to stage
		}
		if r.head == nil {
			r.head = s.pool.get(int(min(size, cmaMaxHead)))
			list = append(list, iovec{})
		}
		step := r.head.Payload[off:min(int(off)+s.cfg.FragSize, len(r.head.Payload))]
		n, err := src.ReadAt(step, off)
		if n == 0 || (err != nil && err != io.EOF) {
			r.head.Release() // the pull meets the same failure and reports it
			r.head = nil
			break
		}
		off += int64(n)
		r.hlen = off
		list[0] = iovOf(r.head.Payload[:off])
	}
	*lp = list
	switch {
	case off < size && r.head == nil:
		r = nil
	case off < size: // unlisted: it stands in for its source, no more
	case len(list) == 1:
		r.n, r.one = 1, list[0]
	default:
		r.n, r.list = len(list), lp
		return r
	}
	iovPool.Put(lp)
	return r
}

// Register exposes src for Get like the stream core's, and publishes it
// in the registration table when its bytes can be read in place and the
// key's slot is free.
func (s *SHM) Register(src Source) uint64 {
	r := s.export(src)
	if r == nil {
		return s.stream.Register(src)
	}
	key := s.stream.Register(r)
	s.winMu.Lock()
	defer s.winMu.Unlock()
	if s.regTab == nil || r.n == 0 {
		return key
	}
	sl := regSlot(s.regTab, key)
	if atomic.LoadUint64(&sl[0]) != 0 {
		return key // in use by an older registration: this one takes the window
	}
	body := r.one
	if r.n > 1 {
		body = iovOfList(*r.list)
	}
	atomic.StoreUint64(&sl[1], selfPID|uint64(r.n)<<32)
	atomic.StoreUint64(&sl[2], body.base)
	atomic.StoreUint64(&sl[3], body.len)
	atomic.StoreUint64(&sl[0], key)
	return key
}

// Deregister revokes key: the slot is cleared before the source, the list
// and the staging are let go, so a peer that read any of them after that
// finds the key gone when it looks again.
func (s *SHM) Deregister(key uint64) {
	r, ok := s.unregister(key).(*cmaReg)
	if !ok {
		return
	}
	s.winMu.Lock()
	if s.regTab != nil {
		if sl := regSlot(s.regTab, key); atomic.LoadUint64(&sl[0]) == key {
			atomic.StoreUint64(&sl[0], 0)
		}
	}
	s.winMu.Unlock()
	r.release()
}

// peerSlot loads key's slot from rank from's table, mapping the table on
// first use. ok is false unless the slot held key before and after.
func (s *SHM) peerSlot(from int, key uint64) (tab []byte, w [4]uint64, ok bool) {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	if tab = s.regIns[from]; tab == nil {
		var err error
		if tab, err = s.mapSeg(shmRegPath(s.dir, from), regTabBytes, false); err != nil {
			return nil, w, false
		}
		s.regIns[from] = tab
	}
	sl := regSlot(tab, key)
	for i := range w {
		w[i] = atomic.LoadUint64(&sl[i])
	}
	return tab, w, w[0] == key && s.slotHoldsLocked(tab, key)
}

// slotHoldsLocked reports whether key's slot still holds it; not once the
// endpoint closed, for Close unmaps the table. Caller holds winMu.
func (s *SHM) slotHoldsLocked(tab []byte, key uint64) bool {
	return !s.closed() && atomic.LoadUint64(&regSlot(tab, key)[0]) == key
}

// parseSlot checks a slot's body, foreign data, and returns the exporter's
// pid and its regions: the one region, or where count of them are listed.
func parseSlot(w [4]uint64, key uint64) (pid, count int, body iovec, ok bool) {
	pid, count = int(uint32(w[1])), int(w[1]>>32)
	body = iovec{w[2], w[3]}
	ok = w[0] == key && key != 0 && pid > 0 && count >= 1 && count <= cmaMaxRegions &&
		(count == 1 || body.len == uint64(count)*16)
	return pid, count, body, ok
}

// clipRegions cuts the bytes [off, off+size) out of a region list a peer
// published. What it returns reads exactly size bytes; ok is false when
// the list does not hold that many.
func clipRegions(tab []iovec, off, size int64) ([]iovec, bool) {
	if off < 0 || size <= 0 {
		return nil, false
	}
	skip, want := uint64(off), uint64(size)
	for len(tab) > 0 && skip >= tab[0].len {
		skip -= tab[0].len
		tab = tab[1:]
	}
	if len(tab) == 0 {
		return nil, false
	}
	tab[0].base += skip
	tab[0].len -= skip
	for i := range tab {
		if tab[i].len >= want {
			tab[i].len = want
			return tab[:i+1], true
		}
		want -= tab[i].len
	}
	return nil, false
}

// cmaPull reads one exporter's memory: rem is what a Get has yet to read
// of it, in order.
type cmaPull struct {
	from, pid int
	rem       []iovec
	moved     uint64
}

// into fills local, in order, with the next bytes of rem; at most
// cmaMaxIov ranges a side go into one call, cut to the same byte count.
// Both lists are consumed.
func (p *cmaPull) into(local []iovec) error {
	for len(local) > 0 {
		l, r := local[:min(len(local), cmaMaxIov)], p.rem[:min(len(p.rem), cmaMaxIov)]
		n := min(iovBytes(l), iovBytes(r))
		if n == 0 {
			return fmt.Errorf("%w: rank %d lists fewer bytes than were asked for", ErrShortTransfer, p.from)
		}
		kl, lrest := iovCut(l, n)
		kr, rrest := iovCut(r, n)
		if err := p.read(l[:kl], r[:kr], n); err != nil {
			return err
		}
		local, p.rem = iovAdvance(local, kl, lrest), iovAdvance(p.rem, kr, rrest)
	}
	return nil
}

// read is one process_vm_readv of n bytes, and what its outcome means:
// anything but a full read is an error.
func (p *cmaPull) read(local, remote []iovec, n uint64) error {
	got, errno := processVMReadv(p.pid, local, remote)
	p.moved += got
	switch {
	case errno == syscall.ESRCH:
		return fmt.Errorf("%w: rank %d (pid %d) is gone", ErrRankDead, p.from, p.pid)
	case errno != 0:
		return fmt.Errorf("%w: reading rank %d's memory: %w", ErrLinkDown, p.from, errno)
	case got != n:
		return fmt.Errorf("%w: read %d of %d bytes of rank %d's memory", ErrShortTransfer, got, n, p.from)
	}
	return nil
}

func iovBytes(v []iovec) (n uint64) {
	for _, e := range v {
		n += e.len
	}
	return n
}

// iovCut returns how many leading entries of v hold its first n bytes,
// having shortened the last of them to end there, and what it cut off.
func iovCut(v []iovec, n uint64) (k int, rest iovec) {
	for k < len(v) {
		e := &v[k]
		k++
		if e.len >= n {
			rest = iovec{e.base + n, e.len - n}
			e.len = n
			break
		}
		n -= e.len
	}
	return k, rest
}

// iovAdvance drops the k entries a call consumed, putting back what
// iovCut cut off the last of them.
func iovAdvance(v []iovec, k int, rest iovec) []iovec {
	if rest.len > 0 {
		k--
		v[k] = rest
	}
	return v[k:]
}

func processVMReadv(pid int, local, remote []iovec) (uint64, syscall.Errno) {
	if sysProcessVMReadv == 0 {
		return 0, syscall.ENOSYS
	}
	n, _, errno := syscall.Syscall6(sysProcessVMReadv, uintptr(pid),
		uintptr(unsafe.Pointer(&local[0])), uintptr(len(local)),
		uintptr(unsafe.Pointer(&remote[0])), uintptr(len(remote)), 0)
	if errno != 0 {
		n = 0
	}
	return uint64(n), errno
}

// cmaGet serves a Get from the exporter's memory when key is published in
// its registration table. done is false when it is not, or when the host
// refuses the call (noted, so nothing is published or tried again): the
// Get then takes the window or the socket as before.
func (s *SHM) cmaGet(from int, key uint64, off int64, sink Sink, sinkOff, size int64) (done bool, err error) {
	if s.cmaOff.Load() || from == s.rank || from < 0 || from >= s.size || size <= 0 {
		return false, nil
	}
	tab, w, held := s.peerSlot(from, key)
	pid, count, body, ok := parseSlot(w, key)
	if !held || !ok {
		return false, nil
	}
	remp, locp := iovPool.Get().(*[]iovec), iovPool.Get().(*[]iovec)
	defer iovPool.Put(remp)
	defer iovPool.Put(locp)
	p := cmaPull{from: from, pid: pid, rem: append((*remp)[:0], body)}
	if count > 1 {
		// The list first, by the same call: count entries where body points.
		*remp = slices.Grow((*remp)[:0], count)
		p.rem = (*remp)[:count]
		err = p.read([]iovec{iovOfList(p.rem)}, []iovec{body}, body.len)
	}
	if err == nil {
		if p.rem, ok = clipRegions(p.rem, off, size); !ok {
			err = fmt.Errorf("%w: rank %d's registration ends before offset %d+%d", ErrShortTransfer, from, off, size)
		}
	}
	if err == nil {
		err = s.cmaLand(&p, locp, sink, sinkOff, size)
		runtime.KeepAlive(sink)
	}
	if errors.Is(err, syscall.EPERM) || errors.Is(err, syscall.ENOSYS) {
		s.cmaOff.Store(true)
		if p.moved == 0 {
			return false, nil
		}
	}
	s.winMu.Lock()
	held = s.slotHoldsLocked(tab, key)
	s.winMu.Unlock()
	switch {
	case s.closed():
		return true, ErrClosed
	case !held:
		return true, fmt.Errorf("%w: rank %d withdrew key %#x during the read", ErrBadKey, from, key)
	case err == nil:
		s.cmaPulls.Add(1)
	}
	return true, err
}

// cmaLand reads size bytes into sink at sinkOff, in offset order: runs of
// the sink's own windows are filled in place, and a range without one (a
// packed head on the receive side) goes through a pooled bounce buffer
// into WriteAt, a step at a time, once everything before it has landed.
// A step stops where the sink's region tail begins, so no tail byte is
// copied twice.
func (s *SHM) cmaLand(p *cmaPull, locp *[]iovec, sink Sink, sinkOff, size int64) error {
	kw := walk(sink, sinkOff)
	loc := (*locp)[:0]
	var bounce *Packet
	defer func() {
		*locp = loc[:0]
		if bounce != nil {
			bounce.Release()
		}
	}()
	for size > 0 {
		w := kw.window(sinkOff, size)
		if len(w) > 0 {
			loc = append(loc, iovOf(w))
			sinkOff, size = sinkOff+int64(len(w)), size-int64(len(w))
			if len(loc) < cmaMaxIov {
				continue
			}
		}
		if err := p.into(loc); err != nil {
			return err
		}
		if loc = loc[:0]; len(w) > 0 {
			continue
		}
		if bounce == nil {
			bounce = s.pool.get(cmaBounce)
		}
		step := min(size, cmaBounce)
		if head := kw.headLeft(sinkOff); head > 0 {
			step = min(step, head)
		}
		b := bounce.Payload[:step]
		if err := p.into(append(loc, iovOf(b))); err != nil {
			return err
		}
		if n, err := sink.WriteAt(b, sinkOff); err != nil {
			return err
		} else if n != len(b) {
			return ErrShortTransfer
		}
		sinkOff, size = sinkOff+int64(len(b)), size-int64(len(b))
	}
	return p.into(loc)
}
