package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mpicd/internal/core"
)

func run2(t *testing.T, rank0, rank1 func(c *core.Comm) error) {
	t.Helper()
	err := core.Run(2, core.Options{}, func(c *core.Comm) error {
		if c.Rank() == 0 {
			return rank0(c)
		}
		return rank1(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// complexObject mirrors the paper's Figure 9 workload: a user object
// holding several 128-KiB arrays plus small metadata.
func complexObject(arrays int, arrayBytes int) map[string]any {
	list := make([]any, arrays)
	for i := range list {
		list[i] = NewFloat64Array(arrayBytes/8, byte(i+1))
	}
	return map[string]any{
		"name":   "sample",
		"step":   int64(42),
		"arrays": list,
	}
}

func sameObject(a, b any) bool { return reflect.DeepEqual(a, b) }

func TestSendRecvBasic(t *testing.T) {
	obj := complexObject(4, 4096)
	run2(t,
		func(c *core.Comm) error { return SendBasic(c, obj, 1, 1) },
		func(c *core.Comm) error {
			got, err := RecvBasic(c, 0, 1)
			if err != nil {
				return err
			}
			if !sameObject(got, obj) {
				return errors.New("basic transfer mismatch")
			}
			return nil
		})
}

func TestSendRecvOOB(t *testing.T) {
	obj := complexObject(5, 128*1024)
	run2(t,
		func(c *core.Comm) error { return SendOOB(c, obj, 1, 1, 4096) },
		func(c *core.Comm) error {
			got, err := RecvOOB(c, 0, 1)
			if err != nil {
				return err
			}
			if !sameObject(got, obj) {
				return errors.New("oob transfer mismatch")
			}
			return nil
		})
}

func TestSendRecvCDT(t *testing.T) {
	for _, tc := range []struct {
		name string
		obj  any
	}{
		{"single-array", NewFloat64Array(1<<16, 3)},
		{"complex", complexObject(8, 128*1024)},
		{"no-oob", "just a small string"},
		{"mixed", []any{"m", NewFloat64Array(4096, 9), int64(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run2(t,
				func(c *core.Comm) error { return SendCDT(c, tc.obj, 1, 1, 4096) },
				func(c *core.Comm) error {
					got, err := RecvCDT(c, 0, 1)
					if err != nil {
						return err
					}
					if !sameObject(got, tc.obj) {
						return fmt.Errorf("cdt transfer mismatch: %#v", got)
					}
					return nil
				})
		})
	}
}

func TestCDTIsSingleMessage(t *testing.T) {
	// After one RecvCDT, no stray messages may remain (the OOB strategy
	// leaves one message per buffer in flight).
	obj := complexObject(6, 64*1024)
	run2(t,
		func(c *core.Comm) error { return SendCDT(c, obj, 1, 1, 1024) },
		func(c *core.Comm) error {
			if _, err := RecvCDT(c, 0, 1); err != nil {
				return err
			}
			if _, ok, err := c.Iprobe(core.AnySource, core.AnyTag); err != nil || ok {
				return fmt.Errorf("stray message after CDT receive (ok=%v, err=%v)", ok, err)
			}
			return nil
		})
}

// TestOOBInterleavingHazard demonstrates the thread-safety problem the
// paper describes with multi-message protocols: when two objects' message
// sequences interleave on the same (comm, tag), receives mis-associate
// headers and buffers. The custom-datatype strategy is immune because an
// object is one atomic message (see TestCDTConcurrentSenders).
func TestOOBInterleavingHazard(t *testing.T) {
	objA := NewFloat64Array(64*1024/8, 1) // 64 KiB payload
	objB := NewFloat64Array(16*1024/8, 2) // different size
	run2(t,
		func(c *core.Comm) error {
			// Simulate two unsynchronized threads: the headers of A and B
			// are sent before either object's buffers.
			ha, oa, _ := DumpsOOB(objA, 1024)
			hb, ob, _ := DumpsOOB(objB, 1024)
			if err := c.Send(ha, -1, core.TypeBytes, 1, 7); err != nil {
				return err
			}
			if err := c.Send(hb, -1, core.TypeBytes, 1, 7); err != nil {
				return err
			}
			if err := c.Send([]byte(oa[0]), -1, core.TypeBytes, 1, 7); err != nil {
				return err
			}
			return c.Send([]byte(ob[0]), -1, core.TypeBytes, 1, 7)
		},
		func(c *core.Comm) error {
			// Receiver follows the OOB protocol and mis-associates: the
			// second message (B's header) is consumed as A's buffer.
			gotA, errA := RecvOOB(c, 0, 7)
			gotB, errB := RecvOOB(c, 0, 7)
			okA := errA == nil && sameObject(gotA, objA)
			okB := errB == nil && sameObject(gotB, objB)
			if okA && okB {
				return errors.New("interleaved multi-message objects decoded cleanly; hazard not reproduced")
			}
			return nil
		})
}

func TestCDTConcurrentSenders(t *testing.T) {
	// Two goroutines send objects on the same tag with the custom
	// datatype; both arrive intact because each object is one message.
	const senders = 4
	run2(t,
		func(c *core.Comm) error {
			var wg sync.WaitGroup
			errs := make(chan error, senders)
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					obj := NewFloat64Array(32*1024/8, byte(g))
					if err := SendCDT(c, obj, 1, 7, 1024); err != nil {
						errs <- err
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			return <-errs
		},
		func(c *core.Comm) error {
			seen := map[byte]bool{}
			for i := 0; i < senders; i++ {
				got, err := RecvCDT(c, 0, 7)
				if err != nil {
					return err
				}
				arr, ok := got.(*NDArray)
				if !ok || len(arr.Data) != 32*1024 {
					return fmt.Errorf("object %d corrupted: %T", i, got)
				}
				// Identify which sender's object this is via its fill seed.
				want := NewFloat64Array(32*1024/8, arr.Data[0])
				if !bytes.Equal(arr.Data, want.Data) {
					return fmt.Errorf("object %d payload corrupted", i)
				}
				seen[arr.Data[0]] = true
			}
			if len(seen) != senders {
				return fmt.Errorf("received %d distinct objects, want %d", len(seen), senders)
			}
			return nil
		})
}

func TestCDTSelfSend(t *testing.T) {
	obj := complexObject(2, 8192)
	err := core.Run(1, core.Options{}, func(c *core.Comm) error {
		r, err := c.Isend(&Msg{Value: obj}, 1, ObjectType(), 0, 1)
		if err != nil {
			return err
		}
		got, err := RecvCDT(c, 0, 1)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if !sameObject(got, obj) {
			return errors.New("self cdt mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bufRefHeader is a header holding one out-of-band buffer reference per
// length, in a list, with no check that the lengths are sane.
func bufRefHeader(lens ...uint64) []byte {
	h := binary.LittleEndian.AppendUint32([]byte{tagList}, uint32(len(lens)))
	for i, n := range lens {
		h = binary.LittleEndian.AppendUint32(append(h, tagBufRef), uint32(i))
		h = binary.LittleEndian.AppendUint64(h, n)
	}
	return h
}

// TestCorruptHeaderIsAnError: a header naming a buffer past int64, or
// buffers summing past the 1 TiB cap, is refused by BufferLens — so the
// custom type's RegionCount and RecvOOB return an error instead of
// panicking in make on the rank that received it.
func TestCorruptHeaderIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		lens []uint64
	}{
		{"past-int64", []uint64{1 << 63}},
		{"max-uint64", []uint64{math.MaxUint64}},
		{"one-past-cap", []uint64{maxBufferBytes + 1}},
		{"sum-past-cap", []uint64{8, maxBufferBytes/2 + 1, maxBufferBytes / 2}},
	} {
		header := bufRefHeader(c.lens...)
		t.Run(c.name+"/BufferLens", func(t *testing.T) {
			if lens, err := BufferLens(header); !errors.Is(err, ErrFormat) {
				t.Fatalf("BufferLens = %v, %v; want ErrFormat", lens, err)
			}
		})
		t.Run(c.name+"/handler", func(t *testing.T) {
			var h objectHandler
			m := &Msg{}
			if err := h.Unpack(m, m, 1, 0, header); err != nil {
				t.Fatal(err)
			}
			if n, err := h.RegionCount(m, m, 1); err == nil {
				t.Fatalf("RegionCount = %d, want an error", n)
			}
			if err := h.Regions(m, m, 1, nil); err == nil {
				t.Fatal("Regions accepted the corrupt header")
			}
		})
		t.Run(c.name+"/RecvOOB", func(t *testing.T) {
			var got error
			run2(t,
				func(c *core.Comm) error { return c.Send(header, -1, core.TypeBytes, 1, 3) },
				func(c *core.Comm) error {
					_, got = RecvOOB(c, 0, 3)
					return nil
				})
			if !errors.Is(got, ErrFormat) {
				t.Fatalf("RecvOOB err = %v, want ErrFormat", got)
			}
		})
	}
	// The cap itself is a legal total: refused only past it.
	if lens, err := BufferLens(bufRefHeader(maxBufferBytes/2, maxBufferBytes/2)); err != nil || len(lens) != 2 {
		t.Fatalf("a header at the cap: %v, %v", lens, err)
	}
}

// TestObjectHeaderFragmentsGrowGeometrically: a receive's header that
// arrives in k fragments is regrown O(log k) times, not once a fragment.
func TestObjectHeaderFragmentsGrowGeometrically(t *testing.T) {
	header, _, err := DumpsOOB(complexObject(200, 8192), 4096)
	if err != nil {
		t.Fatal(err)
	}
	var h objectHandler
	m := &Msg{}
	for _, c := range []struct{ frags, max int }{{5, 4}, {64, 7}} {
		k := (len(header) + c.frags - 1) / c.frags
		allocs := testing.AllocsPerRun(20, func() {
			m.header = nil
			for off := 0; off < len(header); off += k {
				if err := h.Unpack(m, m, 1, int64(off), header[off:min(off+k, len(header))]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !bytes.Equal(m.header, header) {
			t.Fatalf("%d fragments: the staged header differs", c.frags)
		}
		if !raceEnabled && allocs > float64(c.max) {
			t.Fatalf("a %d-byte header in %d fragments allocates %v times, want at most %d", len(header), c.frags, allocs, c.max)
		}
	}
}
