package fabric

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
}

func TestBytesSourceReadAt(t *testing.T) {
	b := make(Bytes, 100)
	fillPattern(b, 7)
	dst := make([]byte, 40)
	n, err := b.ReadAt(dst, 30)
	if err != nil || n != 40 {
		t.Fatalf("ReadAt = %d, %v; want 40, nil", n, err)
	}
	if !bytes.Equal(dst, b[30:70]) {
		t.Fatal("ReadAt content mismatch")
	}
	// Short read at the end returns io.EOF.
	n, err = b.ReadAt(dst, 80)
	if n != 20 || err != io.EOF {
		t.Fatalf("short ReadAt = %d, %v; want 20, io.EOF", n, err)
	}
	// Out of range.
	if _, err := b.ReadAt(dst, 101); err == nil {
		t.Fatal("ReadAt past end should error")
	}
	if _, err := b.ReadAt(dst, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

func TestBytesSinkWriteAt(t *testing.T) {
	b := make(Bytes, 50)
	src := make([]byte, 20)
	fillPattern(src, 3)
	n, err := b.WriteAt(src, 10)
	if err != nil || n != 20 {
		t.Fatalf("WriteAt = %d, %v; want 20, nil", n, err)
	}
	if !bytes.Equal(b[10:30], src) {
		t.Fatal("WriteAt content mismatch")
	}
	if _, err := b.WriteAt(src, 40); err != io.ErrShortWrite {
		t.Fatalf("overflowing WriteAt err = %v; want ErrShortWrite", err)
	}
}

func TestBytesWindow(t *testing.T) {
	b := make(Bytes, 10)
	w, ok := b.Window(4, 100)
	if !ok || len(w) != 6 {
		t.Fatalf("Window(4,100) = len %d, %v; want 6, true", len(w), ok)
	}
	if _, ok := b.Window(11, 1); ok {
		t.Fatal("Window past end should fail")
	}
}

func makeIov(t *testing.T, lens ...int) (*Iov, []byte) {
	t.Helper()
	var regions [][]byte
	var all []byte
	for i, n := range lens {
		r := make([]byte, n)
		fillPattern(r, byte(i+1))
		regions = append(regions, r)
		all = append(all, r...)
	}
	return NewIov(regions), all
}

func TestIovReadWriteAt(t *testing.T) {
	v, all := makeIov(t, 5, 0, 17, 3, 100)
	if v.Size() != int64(len(all)) {
		t.Fatalf("Size = %d; want %d", v.Size(), len(all))
	}
	// Read the whole thing in odd-sized chunks.
	got := make([]byte, len(all))
	for off := 0; off < len(all); off += 7 {
		end := off + 7
		if end > len(all) {
			end = len(all)
		}
		n, err := v.ReadAt(got[off:end], int64(off))
		if err != nil || n != end-off {
			t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
		}
	}
	if !bytes.Equal(got, all) {
		t.Fatal("gather mismatch")
	}
	// Scatter back into a fresh iovec of the same shape.
	w, _ := makeIov(t, 5, 0, 17, 3, 100)
	for _, r := range w.Regions() {
		for i := range r {
			r[i] = 0
		}
	}
	for off := 0; off < len(all); off += 11 {
		end := off + 11
		if end > len(all) {
			end = len(all)
		}
		if _, err := w.WriteAt(all[off:end], int64(off)); err != nil {
			t.Fatalf("WriteAt(%d): %v", off, err)
		}
	}
	got2 := make([]byte, len(all))
	if _, err := w.ReadAt(got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, all) {
		t.Fatal("scatter mismatch")
	}
}

func TestIovWindowWalk(t *testing.T) {
	v, all := makeIov(t, 8, 1, 0, 9, 2)
	var walked []byte
	off := int64(0)
	for off < v.Size() {
		w, ok := v.Window(off, 1000)
		if !ok {
			t.Fatalf("Window(%d) failed", off)
		}
		if len(w) == 0 {
			t.Fatalf("empty window at %d", off)
		}
		walked = append(walked, w...)
		off += int64(len(w))
	}
	if !bytes.Equal(walked, all) {
		t.Fatal("window walk mismatch")
	}
	// Window cap is honored.
	w, ok := v.Window(0, 3)
	if !ok || len(w) != 3 {
		t.Fatalf("capped window len = %d", len(w))
	}
}

// TestIovCursorMatchesWindow: a cursor answers what Window answers at every
// offset, walking forward one offset at a time, jumping ahead, stepping
// back, at the end and past it, and over an empty list.
func TestIovCursorMatchesWindow(t *testing.T) {
	v, _ := makeIov(t, 0, 8, 1, 0, 0, 9, 2, 0)
	check := func(i *int, off int64) {
		t.Helper()
		want, wantOK := v.Window(off, 5)
		got, ok := v.at(i, off, 5)
		if ok != wantOK || len(got) != len(want) || len(got) > 0 && &got[0] != &want[0] {
			t.Fatalf("at(%d) = %d bytes, %v; Window: %d bytes, %v", off, len(got), ok, len(want), wantOK)
		}
	}
	i := v.locate(0)
	for off := int64(0); off <= v.Size()+1; off++ {
		check(&i, off)
	}
	for _, off := range []int64{3, 19, 8, 0, 20, 9, -1, 12, 21, 1} {
		check(&i, off)
	}
	var empty Iov
	j := empty.locate(0)
	if w, ok := empty.at(&j, 0, 5); ok != true || len(w) != 0 {
		t.Fatalf("empty Iov at 0 = %d bytes, %v; want none, true", len(w), ok)
	}
	if _, ok := empty.at(&j, 1, 5); ok {
		t.Fatal("empty Iov at 1 answered")
	}
}

// Property: pull between two region lists split independently — empty
// regions included — moves any sub-range exactly, for any bounce size, and
// a source that ends early is a short transfer.
func TestPullIovToIovProperty(t *testing.T) {
	split := func(rng *rand.Rand, b []byte) *Iov {
		var regions [][]byte
		for len(b) > 0 {
			n := min(rng.Intn(24), len(b))
			regions = append(regions, b[:n:n])
			b = b[n:]
		}
		return NewIov(append(regions, nil))
	}
	f := func(n uint16, from, count uint16, bounceSize uint8, seed int64) bool {
		size := int(n)%3000 + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, size)
		rng.Read(data)
		out := make([]byte, size)
		off := int64(from) % int64(size)
		cnt := int64(count)%(int64(size)-off) + 1
		var bounce []byte
		if bounceSize%2 == 1 {
			bounce = make([]byte, int(bounceSize)%97+1)
		}
		if err := pull(split(rng, data), off, split(rng, out), off, cnt, bounce); err != nil {
			return false
		}
		if !bytes.Equal(out[off:off+cnt], data[off:off+cnt]) || !bytes.Equal(out[:off], make([]byte, off)) ||
			!bytes.Equal(out[off+cnt:], make([]byte, int64(size)-off-cnt)) {
			return false
		}
		return pull(split(rng, data), off, split(rng, make([]byte, size+8)), off, int64(size)+8-off, bounce) == ErrShortTransfer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// nonDirectSource wraps a Bytes to hide its direct window, forcing the
// generic (ReadAt) path.
type nonDirectSource struct{ b Bytes }

func (s nonDirectSource) Size() int64                             { return s.b.Size() }
func (s nonDirectSource) ReadAt(d []byte, off int64) (int, error) { return s.b.ReadAt(d, off) }

type nonDirectSink struct{ b Bytes }

func (s nonDirectSink) Size() int64                              { return s.b.Size() }
func (s nonDirectSink) WriteAt(d []byte, off int64) (int, error) { return s.b.WriteAt(d, off) }

// Property: for any region shape and chunk walk, Iov gathers the exact
// concatenation of its regions.
func TestIovGatherProperty(t *testing.T) {
	f := func(lens []uint8, chunk uint8, seed int64) bool {
		if len(lens) > 12 {
			lens = lens[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		var regions [][]byte
		var all []byte
		for _, l := range lens {
			r := make([]byte, int(l)%64)
			rng.Read(r)
			regions = append(regions, r)
			all = append(all, r...)
		}
		v := NewIov(regions)
		step := int(chunk)%13 + 1
		got := make([]byte, len(all))
		for off := 0; off < len(all); off += step {
			end := off + step
			if end > len(all) {
				end = len(all)
			}
			if _, err := v.ReadAt(got[off:end], int64(off)); err != nil {
				return false
			}
		}
		return bytes.Equal(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: pull moves bytes correctly for every combination of direct and
// generic endpoints and any bounce size.
func TestPullProperty(t *testing.T) {
	f := func(n uint16, bounceSize uint8, srcDirect, sinkDirect bool, seed int64) bool {
		size := int(n) % 5000
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, size)
		rng.Read(data)
		out := make([]byte, size)
		var src Source = Bytes(data)
		if !srcDirect {
			src = nonDirectSource{Bytes(data)}
		}
		var sink Sink = Bytes(out)
		if !sinkDirect {
			sink = nonDirectSink{Bytes(out)}
		}
		bounce := make([]byte, int(bounceSize)%97+1)
		if err := pull(src, 0, sink, 0, int64(size), bounce); err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPullOffsets(t *testing.T) {
	data := make([]byte, 100)
	fillPattern(data, 5)
	out := make([]byte, 200)
	bounce := make([]byte, 16)
	if err := pull(Bytes(data), 20, Bytes(out), 50, 60, bounce); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[50:110], data[20:80]) {
		t.Fatal("offset pull mismatch")
	}
	for i, b := range out[:50] {
		if b != 0 {
			t.Fatalf("byte %d touched outside the window", i)
		}
	}
}

func TestPullIntoIov(t *testing.T) {
	data := make([]byte, 64)
	fillPattern(data, 11)
	dst, _ := makeIov(t, 10, 20, 34)
	for _, r := range dst.Regions() {
		for i := range r {
			r[i] = 0
		}
	}
	bounce := make([]byte, 8)
	if err := pull(Bytes(data), 0, dst, 0, 64, bounce); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := dst.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pull into iov mismatch")
	}
}
