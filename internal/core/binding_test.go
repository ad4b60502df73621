package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// flatBuf is a buffer already in the canonical form: bytes the handler
// packs, then regions. flatHandler serves it, producing at most chunk head
// bytes per Pack call (0: as many as asked for) so reads underfill.
type flatBuf struct {
	head    []byte
	regions [][]byte
}

func (f *flatBuf) image() []byte {
	img := append([]byte(nil), f.head...)
	for _, r := range f.regions {
		img = append(img, r...)
	}
	return img
}

// blank returns a zeroed buffer of the same shape.
func (f *flatBuf) blank() *flatBuf {
	out := &flatBuf{head: make([]byte, len(f.head)), regions: make([][]byte, len(f.regions))}
	for i, r := range f.regions {
		out.regions[i] = make([]byte, len(r))
	}
	return out
}

type flatHandler struct{ chunk int }

func (flatHandler) State(buf any, _ Count) (any, error) {
	if _, ok := buf.(*flatBuf); !ok {
		return nil, fmt.Errorf("flatHandler: bad buffer %T", buf)
	}
	return nil, nil
}
func (flatHandler) FreeState(any) error { return nil }
func (flatHandler) PackedSize(_, buf any, _ Count) (Count, error) {
	return Count(len(buf.(*flatBuf).head)), nil
}
func (h flatHandler) Pack(_, buf any, _, offset Count, dst []byte) (Count, error) {
	if h.chunk > 0 && len(dst) > h.chunk {
		dst = dst[:h.chunk]
	}
	return Count(copy(dst, buf.(*flatBuf).head[offset:])), nil
}
func (flatHandler) Unpack(_, buf any, _, offset Count, src []byte) error {
	copy(buf.(*flatBuf).head[offset:], src)
	return nil
}
func (flatHandler) RegionCount(_, buf any, _ Count) (Count, error) {
	return Count(len(buf.(*flatBuf).regions)), nil
}
func (flatHandler) Regions(_, buf any, _ Count, regions [][]byte) error {
	copy(regions, buf.(*flatBuf).regions)
	return nil
}

func flatOf(headLen int, regionLens ...int) *flatBuf {
	f := &flatBuf{head: pattern(headLen, 1)}
	for i, n := range regionLens {
		f.regions = append(f.regions, pattern(n, byte(3+i)))
	}
	return f
}

// bindSend and bindRecv open the two sides the way the transport does.
func bindSend(t testing.TB, dt *Datatype, buf any) *binding {
	t.Helper()
	st, err := dt.transport().SendState(buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*binding)
}

func bindRecv(t testing.TB, dt *Datatype, buf any, total, head int64) *binding {
	t.Helper()
	st, err := dt.transport().RecvState(buf, 1, ucp.RecvInfo{Total: total, Aux: head})
	if err != nil {
		t.Fatal(err)
	}
	return st.(*binding)
}

// TestBindingHeadIsCallbackTailIsDirect: reads in odd chunks across the
// head/tail seam gather the flat image (with a handler that underfills),
// the head has no window, and tail windows alias the application's
// regions, one region at a time.
func TestBindingHeadIsCallbackTailIsDirect(t *testing.T) {
	f := flatOf(13, 29, 0, 7)
	want := f.image()
	b := bindSend(t, TypeCreateCustom(flatHandler{chunk: 3}), f)
	defer b.Finish()
	if b.Size() != int64(len(want)) || b.Aux() != 13 || b.NumRegions() != 4 {
		t.Fatalf("Size %d Aux %d NumRegions %d; want %d, 13, 4", b.Size(), b.Aux(), b.NumRegions(), len(want))
	}
	got := make([]byte, len(want))
	for off := 0; off < len(want); off += 5 {
		end := min(off+5, len(want))
		if n, err := b.ReadAt(got[off:end], int64(off)); err != nil || n != end-off {
			t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked read across the seam differs from the flat image")
	}
	if _, ok := b.Window(0, 5); ok {
		t.Fatal("the head must not expose a window")
	}
	if _, ok := b.Window(12, 5); ok {
		t.Fatal("a window must not start inside the head")
	}
	if w, ok := b.Window(13, 100); !ok || len(w) != 29 || &w[0] != &f.regions[0][0] {
		t.Fatalf("first tail window = %d bytes, ok=%v; want region 0 itself", len(w), ok)
	}
	if w, ok := b.Window(13+29, 100); !ok || len(w) != 7 || &w[0] != &f.regions[2][0] {
		t.Fatalf("window past the empty region = %d bytes, ok=%v; want region 2 itself", len(w), ok)
	}
	if _, err := b.ReadAt(got[:1], int64(len(want))+1); err == nil {
		t.Fatal("read past the end should fail")
	}
}

// TestBindingSeamWrite scatters the flat image in 4-byte writes, several
// of which straddle the head/tail seam and region boundaries.
func TestBindingSeamWrite(t *testing.T) {
	f := flatOf(10, 5, 15)
	want := f.image()
	out := f.blank()
	b := bindRecv(t, TypeCreateCustom(flatHandler{}), out, int64(len(want)), 10)
	for off := 0; off < len(want); off += 4 {
		end := min(off+4, len(want))
		if n, err := b.WriteAt(want[off:end], int64(off)); err != nil || n != end-off {
			t.Fatalf("WriteAt(%d) = %d, %v", off, n, err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.image(), want) {
		t.Fatal("seam-straddling writes lost bytes")
	}
}

// TestBindingSequentialOnlyForInorder: only an inorder datatype asks the
// transport for in-order delivery, of its head, and only its receive puts
// off naming the regions until the last head byte is unpacked.
func TestBindingSequentialOnlyForInorder(t *testing.T) {
	f := flatOf(8, 16)
	total := int64(len(f.image()))
	plain := bindRecv(t, TypeCreateCustom(flatHandler{}), f.blank(), total, 8)
	defer plain.Finish()
	if plain.Ordered() != 0 || !plain.resolved {
		t.Fatalf("plain receive: Ordered %d, resolved %v; want 0, true", plain.Ordered(), plain.resolved)
	}
	inorder := TypeCreateCustom(flatHandler{}, WithInOrder())
	lazy := bindRecv(t, inorder, f.blank(), total, 8)
	defer lazy.Finish()
	if lazy.Ordered() != 8 || lazy.resolved {
		t.Fatalf("inorder receive: Ordered %d, resolved %v; want 8, false", lazy.Ordered(), lazy.resolved)
	}
	if _, err := lazy.WriteAt(f.head[:7], 0); err != nil || lazy.resolved {
		t.Fatalf("writing all but the head's last byte: %v, resolved %v", err, lazy.resolved)
	}
	if _, err := lazy.WriteAt(f.head[7:], 7); err != nil || !lazy.resolved {
		t.Fatalf("writing the head's last byte: %v, resolved %v", err, lazy.resolved)
	}
	if w, ok := lazy.Window(8, 16); !ok || len(w) != 16 {
		t.Fatalf("first window past the head = %d bytes, ok=%v", len(w), ok)
	}
	if send := bindSend(t, inorder, f); !send.resolved {
		t.Fatal("a send names its regions when it is bound")
	}
	gapped, err := ddt.Vector(2, 1, 4, ddt.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if bindSend(t, FromDDT(gapped), make([]byte, gapped.Span(1))).Ordered() != 0 {
		t.Fatal("a derived datatype is never sequential")
	}
}

// TestDerivedNegativeCountIsError: a negative element count is an error for
// a derived datatype whichever way it lowers, not a slice-bounds panic.
func TestDerivedNegativeCountIsError(t *testing.T) {
	gapped, err := ddt.Vector(2, 1, 4, ddt.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []*ddt.Type{ddt.Int64, gapped} {
		dt := FromDDT(typ)
		buf := make([]byte, 256)
		if _, err := dt.transport().SendState(buf, -1); err == nil {
			t.Errorf("%s: send state of count -1 succeeded", typ.Name())
		}
		if _, err := dt.transport().RecvState(buf, -1, ucp.RecvInfo{Total: 8}); err == nil {
			t.Errorf("%s: receive state of count -1 succeeded", typ.Name())
		}
		if _, err := Pack(buf, -1, dt, make([]byte, 256)); err == nil {
			t.Errorf("%s: Pack of count -1 succeeded", typ.Name())
		}
	}
}

// walkWindows reads b through its windows where it has them and ReadAt
// elsewhere, step bytes at a time: what a rendezvous pull does.
func walkWindows(b *binding, step int) ([]byte, error) {
	out := make([]byte, 0, b.Size())
	for off := int64(0); off < b.Size(); {
		if w, ok := b.Window(off, int64(step)); ok && len(w) > 0 {
			out = append(out, w...)
			off += int64(len(w))
			continue
		}
		frag := make([]byte, min(int64(step), b.Size()-off))
		n, err := b.ReadAt(frag, off)
		if n == 0 {
			return out, fmt.Errorf("no progress at %d: %v", off, err)
		}
		out = append(out, frag[:n]...)
		off += int64(n)
	}
	return out, nil
}

// withEmpties is f with empty regions at the front, in the middle and at
// the end: the same image, more regions to walk past.
func (f *flatBuf) withEmpties() *flatBuf {
	mid := len(f.regions) / 2
	regions := append([][]byte{{}}, f.regions[:mid]...)
	regions = append(append(regions, []byte{}), f.regions[mid:]...)
	return &flatBuf{head: f.head, regions: append(regions, []byte{})}
}

// splitAs is a zeroed buffer for an n-byte image split its own way: a head
// of head bytes, then regions of the lengths cuts gives (mod 64), the last
// taking the rest.
func splitAs(n, head int, cuts []byte) *flatBuf {
	out := &flatBuf{head: make([]byte, head)}
	rest := n - head
	for _, c := range cuts {
		l := min(int(c)%64, rest)
		out.regions = append(out.regions, make([]byte, l))
		rest -= l
	}
	out.regions = append(out.regions, make([]byte, rest))
	return out.withEmpties()
}

// FuzzBindingOffsets: for any head length, region lengths (empty regions
// and no regions included), Pack underfill and chunking, a binding reads
// as the flat image through ReadAt and through the window walk, and
// WriteAt rebuilds the buffer from it — striped (disjoint ranges written
// concurrently, as a striped pull does) for a plain type, one byte at a
// time in order for an inorder one. And a binding moves into a binding
// split its own way — its own head, its own regions, empty ones at the
// front, middle and end on both sides — through fabric.Transfer: from a
// random offset in 1–4 concurrent stripes, and whole into an inorder one.
func FuzzBindingOffsets(f *testing.F) {
	f.Add(uint8(13), []byte{29, 0, 7}, uint8(3), uint8(5), uint8(2), uint8(0), []byte{5, 0, 9}, uint16(3))
	f.Add(uint8(0), []byte{64}, uint8(0), uint8(9), uint8(3), uint8(17), []byte{1, 1, 1}, uint16(0))
	f.Add(uint8(40), []byte{}, uint8(7), uint8(1), uint8(4), uint8(40), []byte{}, uint16(41))
	f.Add(uint8(0), []byte{}, uint8(0), uint8(1), uint8(1), uint8(0), []byte{}, uint16(0))
	f.Add(uint8(1), []byte{0, 0, 1, 0}, uint8(1), uint8(2), uint8(7), uint8(2), []byte{0, 63}, uint16(1))
	f.Add(uint8(200), []byte{8, 8, 8, 8, 8, 8, 8, 8}, uint8(16), uint8(60), uint8(3), uint8(3), []byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, uint16(150))
	f.Fuzz(func(t *testing.T, headLen uint8, regionLens []byte, packChunk, step, stripes, recvHead uint8, recvCuts []byte, start uint16) {
		if len(regionLens) > 16 {
			regionLens = regionLens[:16]
		}
		lens := make([]int, len(regionLens))
		for i, n := range regionLens {
			lens[i] = int(n)
		}
		src := flatOf(int(headLen), lens...)
		want := src.image()
		total := int64(len(want))
		chunk := int(step)%61 + 1
		h := flatHandler{chunk: int(packChunk) % 17}

		send := bindSend(t, TypeCreateCustom(h), src)
		got := make([]byte, total)
		for off := 0; off < len(want); off += chunk {
			end := min(off+chunk, len(want))
			if n, err := send.ReadAt(got[off:end], int64(off)); err != nil || n != end-off {
				t.Fatalf("ReadAt(%d, %d bytes) = %d, %v", off, end-off, n, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatal("ReadAt differs from the flat image")
		}
		if walked, err := walkWindows(send, chunk); err != nil || !bytes.Equal(walked, want) {
			t.Fatalf("window walk differs from the flat image (%v)", err)
		}
		if err := send.Finish(); err != nil {
			t.Fatal(err)
		}

		// Striped: each stripe scatters its own range in chunks, concurrently.
		out := src.blank()
		recv := bindRecv(t, TypeCreateCustom(h), out, total, int64(headLen))
		n := int64(stripes)%4 + 1
		span := (total + n - 1) / n
		var wg sync.WaitGroup
		for lo := int64(0); lo < total; lo += span {
			wg.Add(1)
			go func(lo, hi int64) {
				defer wg.Done()
				for off := lo; off < hi; off += int64(chunk) {
					end := min(off+int64(chunk), hi)
					if _, err := recv.WriteAt(want[off:end], off); err != nil {
						t.Errorf("striped WriteAt(%d): %v", off, err)
					}
				}
			}(lo, min(lo+span, total))
		}
		wg.Wait()
		if err := recv.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.image(), want) {
			t.Fatal("striped writes did not rebuild the buffer")
		}

		// Sequential: an inorder receive, fed one byte at a time.
		out = src.blank()
		seq := bindRecv(t, TypeCreateCustom(h, WithInOrder()), out, total, int64(headLen))
		for off := range want {
			if _, err := seq.WriteAt(want[off:off+1], int64(off)); err != nil {
				t.Fatalf("sequential WriteAt(%d): %v", off, err)
			}
		}
		if err := seq.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.image(), want) {
			t.Fatal("1-byte sequential writes did not rebuild the buffer")
		}

		// Binding to binding, each stripe on its own walk, with a bounce
		// buffer of the chunk size or none.
		if len(recvCuts) > 32 {
			recvCuts = recvCuts[:32]
		}
		rh := int(recvHead) % (len(want) + 1)
		from := int64(start) % (total + 1)
		bounce := func() []byte {
			if step%2 == 1 {
				return make([]byte, chunk)
			}
			return nil
		}
		sender := bindSend(t, TypeCreateCustom(h), src.withEmpties())
		defer sender.Finish()
		into := splitAs(len(want), rh, recvCuts)
		dst := bindRecv(t, TypeCreateCustom(h), into, total, int64(rh))
		span = (total - from + n - 1) / n
		for lo := from; lo < total; lo += span {
			wg.Add(1)
			go func(lo, size int64) {
				defer wg.Done()
				if err := fabric.Transfer(sender, lo, dst, lo, size, bounce()); err != nil {
					t.Errorf("Transfer [%d,+%d): %v", lo, size, err)
				}
			}(lo, min(span, total-lo))
		}
		wg.Wait()
		if err := dst.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := into.image(); !bytes.Equal(got[from:], want[from:]) || !bytes.Equal(got[:from], make([]byte, from)) {
			t.Fatalf("Transfer from %d in %d stripes (heads %d and %d) did not rebuild the image", from, n, headLen, rh)
		}

		into = splitAs(len(want), rh, recvCuts)
		seq = bindRecv(t, TypeCreateCustom(h, WithInOrder()), into, total, int64(rh))
		if err := fabric.Transfer(sender, 0, seq, 0, total, bounce()); err != nil {
			t.Fatalf("Transfer into an inorder receive: %v", err)
		}
		if err := seq.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(into.image(), want) {
			t.Fatal("Transfer into an inorder receive did not rebuild the image")
		}
	})
}

// sizedBuf is a buffer whose head names its regions: one length byte a
// region, as double-vec's head carries its sub-vector lengths. A receive
// sizes its regions from the head it unpacked, so its Regions is only
// sound once the last head byte is in; askedAt records how many were.
type sizedBuf struct {
	head     []byte
	regions  [][]byte
	unpacked int
	askedAt  int // unpacked when Regions ran; -1 before
}

type sizedHandler struct{}

func (sizedHandler) State(buf any, _ Count) (any, error) { return buf.(*sizedBuf), nil }
func (sizedHandler) FreeState(any) error                 { return nil }
func (sizedHandler) PackedSize(s, _ any, _ Count) (Count, error) {
	return Count(len(s.(*sizedBuf).head)), nil
}
func (sizedHandler) Pack(s, _ any, _, offset Count, dst []byte) (Count, error) {
	return Count(copy(dst, s.(*sizedBuf).head[offset:])), nil
}
func (sizedHandler) Unpack(s, _ any, _, offset Count, src []byte) error {
	b := s.(*sizedBuf)
	b.unpacked = max(b.unpacked, int(offset)+copy(b.head[offset:], src))
	return nil
}
func (sizedHandler) RegionCount(s, _ any, _ Count) (Count, error) {
	return Count(len(s.(*sizedBuf).head)), nil
}
func (sizedHandler) Regions(s, _ any, _ Count, regions [][]byte) error {
	b := s.(*sizedBuf)
	b.askedAt = b.unpacked
	if b.regions == nil { // a receive: sized from the head
		for _, l := range b.head {
			b.regions = append(b.regions, make([]byte, l))
		}
	}
	copy(regions, b.regions)
	return nil
}

// TestInorderTailResolvedAfterHead: an inorder receive whose regions are
// sized from its head is asked for them only after the last head byte was
// unpacked — by a self-send's Transfer, an in-process Get and an SHM Get,
// each of which walks the receive's region tail once it reaches it.
func TestInorderTailResolvedAfterHead(t *testing.T) {
	msg := &sizedBuf{head: make([]byte, 300), askedAt: -1}
	for i := range msg.head {
		msg.head[i] = byte(i * 37 % 97) // some regions empty
		msg.regions = append(msg.regions, pattern(int(msg.head[i]), byte(i)))
	}
	dt := TypeCreateCustom(sizedHandler{}, WithInOrder())
	flat := (&flatBuf{head: msg.head, regions: msg.regions}).image()
	total := int64(len(flat))

	inproc := fabric.NewInproc(2, fabric.Config{})
	defer inproc.Close()
	dir := t.TempDir()
	var shm [2]*fabric.SHM
	for i := range shm {
		nic, err := fabric.NewSHM(i, 2, dir, fabric.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer nic.Close()
		shm[i] = nic
	}
	get := func(nics [2]fabric.NIC) func(src, sink *binding) error {
		return func(src, sink *binding) error {
			key := nics[0].Register(src)
			defer nics[0].Deregister(key)
			return nics[1].Get(0, key, 0, sink, 0, total)
		}
	}
	for _, c := range []struct {
		name string
		move func(src, sink *binding) error
	}{
		{"Transfer", func(src, sink *binding) error { return fabric.Transfer(src, 0, sink, 0, total, nil) }},
		{"inproc-Get", get([2]fabric.NIC{inproc.NIC(0), inproc.NIC(1)})},
		{"shm-Get", get([2]fabric.NIC{shm[0], shm[1]})},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := &sizedBuf{head: make([]byte, len(msg.head)), askedAt: -1}
			src := bindSend(t, dt, msg)
			sink := bindRecv(t, dt, out, total, int64(len(msg.head)))
			if out.askedAt != -1 {
				t.Fatal("an inorder receive named its regions when it was bound")
			}
			err := c.move(src, sink)
			if ferr := sink.Finish(); err == nil {
				err = ferr
			}
			src.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if out.askedAt != len(msg.head) {
				t.Fatalf("Regions ran with %d of %d head bytes unpacked", out.askedAt, len(msg.head))
			}
			if got := (&flatBuf{head: out.head, regions: out.regions}).image(); !bytes.Equal(got, flat) {
				t.Fatal("the received image differs")
			}
		})
	}
}

// badCountHandler is flatHandler with one answer of the opening sequence
// made wrong.
type badCountHandler struct {
	flatHandler
	packed, nreg Count // when negative, reported instead of the truth
}

func (h badCountHandler) PackedSize(s, buf any, c Count) (Count, error) {
	if h.packed < 0 {
		return h.packed, nil
	}
	return h.flatHandler.PackedSize(s, buf, c)
}

func (h badCountHandler) RegionCount(s, buf any, c Count) (Count, error) {
	if h.nreg < 0 {
		return h.nreg, nil
	}
	return h.flatHandler.RegionCount(s, buf, c)
}

// TestCustomHandlerBadCountsAreErrors: a handler that reports a negative
// packed size or region count, or receive regions that do not add up to
// the message's tail, fails the operation on every entry — nothing
// panics, on the caller or on the progress goroutine, and a rendezvous
// sender learns that its receiver gave up.
func TestCustomHandlerBadCountsAreErrors(t *testing.T) {
	good := TypeCreateCustom(flatHandler{})
	negPacked := TypeCreateCustom(badCountHandler{packed: -1})
	negRegions := TypeCreateCustom(badCountHandler{nreg: -1})
	small, large := flatOf(16, 100, 60), flatOf(16, 40000, 30000) // eager, rendezvous
	shortfall := func(f *flatBuf) *flatBuf {                      // one region byte short of f
		out := f.blank()
		out.regions[1] = out.regions[1][1:]
		return out
	}

	local := []struct {
		name string
		dt   *Datatype
		buf  *flatBuf
	}{
		{"negative-packed-size", negPacked, small},
		{"negative-region-count", negRegions, small},
	}
	for _, c := range local {
		t.Run(c.name+"/PackedSize", func(t *testing.T) {
			if _, err := PackedSize(c.buf, 1, c.dt); err == nil {
				t.Fatal("PackedSize succeeded")
			}
		})
		t.Run(c.name+"/Pack", func(t *testing.T) {
			if _, err := Pack(c.buf, 1, c.dt, make([]byte, 1<<10)); err == nil {
				t.Fatal("Pack succeeded")
			}
		})
		t.Run(c.name+"/Unpack", func(t *testing.T) {
			if err := Unpack(c.buf.image(), c.buf.blank(), 1, c.dt); err == nil {
				t.Fatal("Unpack succeeded")
			}
		})
		t.Run(c.name+"/Send", func(t *testing.T) {
			run2(t, Options{},
				func(c0 *Comm) error {
					if err := c0.Send(c.buf, 1, c.dt, 1, 1); err == nil {
						return errors.New("Send succeeded")
					}
					return nil
				},
				func(*Comm) error { return nil })
		})
	}
	t.Run("regions-short-of-tail/Unpack", func(t *testing.T) {
		err := Unpack(small.image(), shortfall(small), 1, good)
		if err == nil || !strings.Contains(err.Error(), "regions total") {
			t.Fatalf("Unpack = %v; want a region-total error", err)
		}
	})

	// Receives: the sender is sound, the receiver's handler or buffer is not.
	recvs := []struct {
		name string
		dt   *Datatype
		into func(*flatBuf) *flatBuf
	}{
		{"negative-region-count", negRegions, (*flatBuf).blank},
		{"regions-short-of-tail", good, shortfall},
	}
	for _, c := range recvs {
		for _, msg := range []*flatBuf{small, large} {
			rndv := msg == large
			for _, entry := range []string{"Recv", "MRecv"} {
				t.Run(fmt.Sprintf("%s/%s/rndv=%v", c.name, entry, rndv), func(t *testing.T) {
					run2(t, Options{},
						func(c0 *Comm) error {
							err := c0.Send(msg, 1, good, 1, 1)
							if rndv && err == nil {
								return errors.New("the rendezvous sender was not told its receiver failed")
							}
							return nil
						},
						func(c1 *Comm) error {
							var err error
							if entry == "Recv" {
								_, err = c1.Recv(c.into(msg), 1, c.dt, 0, 1)
							} else {
								var m *Message
								if m, err = c1.Mprobe(0, 1); err == nil {
									_, err = c1.MRecv(m, c.into(msg), 1, c.dt)
								}
							}
							if err == nil {
								return fmt.Errorf("%s succeeded", entry)
							}
							return nil
						})
				})
			}
		}
	}
}
