package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mpicd/internal/fabric"
	"mpicd/internal/layout"
	"mpicd/internal/ucp"
)

// recVec is a struct-with-vector test type: three scalar fields that need
// packing plus a heap buffer sent as a memory region (the paper's
// struct-vec with a true dynamic vector, which derived datatypes cannot
// express).
type recVec struct {
	A, B int32
	D    float64
	Data []byte
}

const recVecPacked = 16 // A, B, D packed without the 4-byte gap

// recVecHandler implements CustomHandler for *recVec (count == 1) and
// []*recVec (count > 1).
type recVecHandler struct{}

func recVecs(buf any, count Count) ([]*recVec, error) {
	switch v := buf.(type) {
	case *recVec:
		if count != 1 {
			return nil, fmt.Errorf("count %d for single record", count)
		}
		return []*recVec{v}, nil
	case []*recVec:
		if count > int64(len(v)) {
			return nil, fmt.Errorf("count %d exceeds %d records", count, len(v))
		}
		return v[:count], nil
	default:
		return nil, fmt.Errorf("recVecHandler: bad buffer %T", buf)
	}
}

func (recVecHandler) State(buf any, count Count) (any, error) {
	return recVecs(buf, count)
}

func (recVecHandler) FreeState(any) error { return nil }

func (recVecHandler) PackedSize(state, _ any, count Count) (Count, error) {
	return count * recVecPacked, nil
}

func (recVecHandler) Pack(state, _ any, count, offset Count, dst []byte) (Count, error) {
	recs := state.([]*recVec)
	var used Count
	for used < Count(len(dst)) {
		at := offset + used
		i := at / recVecPacked
		if i >= count {
			break
		}
		within := at % recVecPacked
		var elem [recVecPacked]byte
		layout.PutI32(elem[:], 0, recs[i].A)
		layout.PutI32(elem[:], 4, recs[i].B)
		layout.PutF64(elem[:], 8, recs[i].D)
		n := copy(dst[used:], elem[within:])
		used += Count(n)
	}
	return used, nil
}

func (recVecHandler) Unpack(state, _ any, count, offset Count, src []byte) error {
	recs := state.([]*recVec)
	// Fragments may split fields; reassemble via a per-record staging
	// buffer held in the records themselves (whole-element writes only in
	// this test: offsets are element-aligned when fragments are big).
	for len(src) > 0 {
		i := offset / recVecPacked
		within := offset % recVecPacked
		var elem [recVecPacked]byte
		layout.PutI32(elem[:], 0, recs[i].A)
		layout.PutI32(elem[:], 4, recs[i].B)
		layout.PutF64(elem[:], 8, recs[i].D)
		n := copy(elem[within:], src)
		recs[i].A = layout.I32(elem[:], 0)
		recs[i].B = layout.I32(elem[:], 4)
		recs[i].D = layout.F64(elem[:], 8)
		src = src[n:]
		offset += Count(n)
	}
	return nil
}

func (recVecHandler) RegionCount(state, _ any, count Count) (Count, error) {
	return count, nil
}

func (recVecHandler) Regions(state, _ any, count Count, regions [][]byte) error {
	recs := state.([]*recVec)
	for i := Count(0); i < count; i++ {
		regions[i] = recs[i].Data
	}
	return nil
}

// dvHeader is the packed part of the dynamic double-vector handler:
// [count][len 0][len 1]... as int64s.
func dvHeaderSize(n int) Count { return Count(8 * (n + 1)) }

// dvHandler serializes [][]byte (the paper's Vec<Vec<i32>> double-vector):
// packed part carries the lengths, regions carry the subvector bytes. The
// receive side learns the shape from the unpacked header, so the type
// requires in-order delivery — the exact scenario the paper's inorder flag
// exists for.
type dvHandler struct{}

type dvState struct {
	// send side
	vecs [][]byte
	// receive side
	out    *[][]byte
	header []byte // staged header bytes (receive)
	got    Count
}

func (dvHandler) State(buf any, count Count) (any, error) {
	switch v := buf.(type) {
	case [][]byte:
		return &dvState{vecs: v}, nil
	case *[][]byte:
		return &dvState{out: v}, nil
	default:
		return nil, fmt.Errorf("dvHandler: bad buffer %T", buf)
	}
}

func (dvHandler) FreeState(any) error { return nil }

// sendVecs returns the vector list when the state can act as a send side
// (plain [][]byte buffers, or pointer buffers already materialized by a
// receive — needed when a Bcast interior rank forwards what it received).
func (s *dvState) sendVecs() ([][]byte, error) {
	if s.vecs != nil {
		return s.vecs, nil
	}
	if s.out != nil && *s.out != nil {
		return *s.out, nil
	}
	return nil, errors.New("dvHandler: buffer holds no data to pack")
}

func (dvHandler) PackedSize(state, _ any, _ Count) (Count, error) {
	vecs, err := state.(*dvState).sendVecs()
	if err != nil {
		return 0, err
	}
	return dvHeaderSize(len(vecs)), nil
}

func (dvHandler) Pack(state, _ any, _, offset Count, dst []byte) (Count, error) {
	vecs, err := state.(*dvState).sendVecs()
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, dvHeaderSize(len(vecs)))
	layout.PutI64(hdr, 0, int64(len(vecs)))
	for i, v := range vecs {
		layout.PutI64(hdr, 8*(i+1), int64(len(v)))
	}
	return Count(copy(dst, hdr[offset:])), nil
}

func (dvHandler) Unpack(state, _ any, _, offset Count, src []byte) error {
	s := state.(*dvState)
	if s.header == nil {
		s.header = make([]byte, 8)
	}
	// Grow once the count is known.
	copyAt := func(off Count, b []byte) {
		copy(s.header[off:], b)
	}
	if offset < 8 {
		n := copy(s.header[offset:8], src)
		s.got += Count(n)
		src = src[n:]
		offset += Count(n)
	}
	if s.got >= 8 && len(s.header) == 8 {
		n := int(layout.I64(s.header, 0))
		grown := make([]byte, dvHeaderSize(n))
		copy(grown, s.header)
		s.header = grown
	}
	if len(src) > 0 {
		copyAt(offset, src)
		s.got += Count(len(src))
	}
	// Materialize output vectors when the header is complete.
	if len(s.header) > 8 && s.got == Count(len(s.header)) {
		n := int(layout.I64(s.header, 0))
		vecs := make([][]byte, n)
		for i := 0; i < n; i++ {
			vecs[i] = make([]byte, layout.I64(s.header, 8*(i+1)))
		}
		*s.out = vecs
	}
	return nil
}

func (dvHandler) RegionCount(state, _ any, _ Count) (Count, error) {
	s := state.(*dvState)
	if s.vecs != nil {
		return Count(len(s.vecs)), nil
	}
	return Count(len(*s.out)), nil
}

func (dvHandler) Regions(state, _ any, _ Count, regions [][]byte) error {
	s := state.(*dvState)
	vecs := s.vecs
	if vecs == nil {
		vecs = *s.out
	}
	for i := range regions {
		regions[i] = vecs[i]
	}
	return nil
}

func TestCustomStructVecRoundtrip(t *testing.T) {
	dt := TypeCreateCustom(recVecHandler{}, WithName("rec-vec"))
	for _, dataLen := range []int{0, 100, 100000} {
		t.Run(fmt.Sprint(dataLen), func(t *testing.T) {
			send := &recVec{A: 1, B: -2, D: 3.25, Data: pattern(dataLen, 9)}
			run2(t, Options{},
				func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
				func(c *Comm) error {
					recv := &recVec{Data: make([]byte, dataLen)}
					st, err := c.Recv(recv, 1, dt, 0, 1)
					if err != nil {
						return err
					}
					if st.Aux != recVecPacked {
						return fmt.Errorf("aux (packed len) = %d", st.Aux)
					}
					if recv.A != 1 || recv.B != -2 || recv.D != 3.25 {
						return fmt.Errorf("fields = %+v", recv)
					}
					if !bytes.Equal(recv.Data, send.Data) {
						return errors.New("region data mismatch")
					}
					return nil
				})
		})
	}
}

func TestCustomStructVecMultiCount(t *testing.T) {
	dt := TypeCreateCustom(recVecHandler{})
	const n = 20
	send := make([]*recVec, n)
	for i := range send {
		send[i] = &recVec{A: int32(i), B: int32(-i), D: float64(i) / 2, Data: pattern(512, byte(i))}
	}
	run2(t, Options{},
		func(c *Comm) error { return c.Send(send, n, dt, 1, 1) },
		func(c *Comm) error {
			recv := make([]*recVec, n)
			for i := range recv {
				recv[i] = &recVec{Data: make([]byte, 512)}
			}
			if _, err := c.Recv(recv, n, dt, 0, 1); err != nil {
				return err
			}
			for i := range recv {
				if recv[i].A != int32(i) || recv[i].B != int32(-i) || recv[i].D != float64(i)/2 {
					return fmt.Errorf("record %d fields = %+v", i, recv[i])
				}
				if !bytes.Equal(recv[i].Data, send[i].Data) {
					return fmt.Errorf("record %d data mismatch", i)
				}
			}
			return nil
		})
}

func TestCustomDynamicDoubleVec(t *testing.T) {
	dt := TypeCreateCustom(dvHandler{}, WithInOrder(), WithName("double-vec"))
	shapes := [][]int{
		{},
		{10},
		{1024, 1024, 1024},
		{1, 100000, 3, 0, 77},
	}
	for si, shape := range shapes {
		t.Run(fmt.Sprint(si), func(t *testing.T) {
			send := make([][]byte, len(shape))
			for i, n := range shape {
				send[i] = pattern(n, byte(i+1))
			}
			run2(t, Options{},
				func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
				func(c *Comm) error {
					// Receiver does NOT know the shape: the header message
					// part carries it.
					var recv [][]byte
					if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
						return err
					}
					if len(recv) != len(send) {
						return fmt.Errorf("got %d subvectors, want %d", len(recv), len(send))
					}
					for i := range send {
						if !bytes.Equal(recv[i], send[i]) {
							return fmt.Errorf("subvector %d mismatch", i)
						}
					}
					return nil
				})
		})
	}
}

func TestCustomDynamicDoubleVecEagerAndSmall(t *testing.T) {
	// Tiny messages go eager; the dynamic header flow must still work.
	dt := TypeCreateCustom(dvHandler{}, WithInOrder())
	send := [][]byte{pattern(5, 1), pattern(9, 2)}
	run2(t, Options{UCP: ucp.Config{RndvThresh: 4 << 20}},
		func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
		func(c *Comm) error {
			var recv [][]byte
			if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
				return err
			}
			if len(recv) != 2 || !bytes.Equal(recv[0], send[0]) || !bytes.Equal(recv[1], send[1]) {
				return errors.New("eager dynamic mismatch")
			}
			return nil
		})
}

func TestCustomDynamicUnderOutOfOrderFabric(t *testing.T) {
	// The inorder flag must shield the handler from fabric reordering.
	dt := TypeCreateCustom(dvHandler{}, WithInOrder())
	send := make([][]byte, 64)
	for i := range send {
		send[i] = pattern(700, byte(i))
	}
	opt := ReorderOptions(Options{
		Fabric: fabric.Config{FragSize: 512},
		UCP:    ucp.Config{RndvThresh: 1 << 30},
	}, 99)
	run2(t, opt,
		func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
		func(c *Comm) error {
			var recv [][]byte
			if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
				return err
			}
			for i := range send {
				if !bytes.Equal(recv[i], send[i]) {
					return fmt.Errorf("subvector %d mismatch", i)
				}
			}
			return nil
		})
}

func TestCustomUnexpectedPath(t *testing.T) {
	dt := TypeCreateCustom(dvHandler{}, WithInOrder())
	send := [][]byte{pattern(30000, 3)}
	run2(t, Options{},
		func(c *Comm) error {
			r, err := c.Isend(send, 1, dt, 1, 1)
			if err != nil {
				return err
			}
			if err := c.Send([]byte{1}, 1, TypeBytes, 1, 2); err != nil { // flush marker
				return err
			}
			_, err = r.Wait()
			return err
		},
		func(c *Comm) error {
			// Let the custom message land unexpectedly first.
			one := make([]byte, 1)
			if _, err := c.Recv(one, 1, TypeBytes, 0, 2); err != nil {
				return err
			}
			var recv [][]byte
			if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
				return err
			}
			if len(recv) != 1 || !bytes.Equal(recv[0], send[0]) {
				return errors.New("unexpected custom mismatch")
			}
			return nil
		})
}

// failingHandler errors from a chosen callback.
type failingHandler struct {
	recVecHandler
	failState   bool
	failQuery   bool
	failPack    bool
	failRegions bool
}

func (h failingHandler) State(buf any, count Count) (any, error) {
	if h.failState {
		return nil, errors.New("state failure")
	}
	return h.recVecHandler.State(buf, count)
}

func (h failingHandler) PackedSize(state, buf any, count Count) (Count, error) {
	if h.failQuery {
		return 0, errors.New("query failure")
	}
	return h.recVecHandler.PackedSize(state, buf, count)
}

func (h failingHandler) Pack(state, buf any, count, offset Count, dst []byte) (Count, error) {
	if h.failPack {
		return 0, errors.New("pack failure")
	}
	return h.recVecHandler.Pack(state, buf, count, offset, dst)
}

func (h failingHandler) Regions(state, buf any, count Count, regions [][]byte) error {
	if h.failRegions {
		return errors.New("regions failure")
	}
	return h.recVecHandler.Regions(state, buf, count, regions)
}

func TestCustomCallbackErrorsPropagate(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    failingHandler
	}{
		{"state", failingHandler{failState: true}},
		{"query", failingHandler{failQuery: true}},
		{"regions", failingHandler{failRegions: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dt := TypeCreateCustom(tc.h)
			rec := &recVec{Data: pattern(100, 1)}
			err := Run(2, Options{}, func(c *Comm) error {
				if c.Rank() == 0 {
					if err := c.Send(rec, 1, dt, 1, 1); err == nil {
						return errors.New("send should fail")
					}
					return nil
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCustomStateFreed(t *testing.T) {
	var mu sync.Mutex
	allocs, frees := 0, 0
	h := countingHandler{onState: func() { mu.Lock(); allocs++; mu.Unlock() },
		onFree: func() { mu.Lock(); frees++; mu.Unlock() }}
	dt := TypeCreateCustom(h)
	rec := &recVec{A: 5, Data: pattern(10, 1)}
	run2(t, Options{},
		func(c *Comm) error { return c.Send(rec, 1, dt, 1, 1) },
		func(c *Comm) error {
			out := &recVec{Data: make([]byte, 10)}
			_, err := c.Recv(out, 1, dt, 0, 1)
			return err
		})
	mu.Lock()
	defer mu.Unlock()
	if allocs == 0 || allocs != frees {
		t.Fatalf("state allocs %d, frees %d", allocs, frees)
	}
}

type countingHandler struct {
	recVecHandler
	onState func()
	onFree  func()
}

func (h countingHandler) State(buf any, count Count) (any, error) {
	h.onState()
	return h.recVecHandler.State(buf, count)
}

func (h countingHandler) FreeState(state any) error {
	h.onFree()
	return h.recVecHandler.FreeState(state)
}

func TestCustomPackUnpackHelper(t *testing.T) {
	// The MPI_Pack analogue runs full serialization through the handler.
	dt := TypeCreateCustom(recVecHandler{})
	rec := &recVec{A: 7, B: 8, D: 9.5, Data: pattern(64, 2)}
	size, err := PackedSize(rec, 1, dt)
	if err != nil {
		t.Fatal(err)
	}
	if size != recVecPacked+64 {
		t.Fatalf("PackedSize = %d", size)
	}
	buf := make([]byte, size)
	if _, err := Pack(rec, 1, dt, buf); err != nil {
		t.Fatal(err)
	}
	out := &recVec{Data: make([]byte, 64)}
	if err := Unpack(buf, out, 1, dt); err != nil {
		t.Fatal(err)
	}
	if out.A != 7 || out.B != 8 || out.D != 9.5 || !bytes.Equal(out.Data, rec.Data) {
		t.Fatalf("unpacked = %+v", out)
	}
}

func TestCustomSelfSend(t *testing.T) {
	dt := TypeCreateCustom(dvHandler{}, WithInOrder())
	send := [][]byte{pattern(100, 1), pattern(20000, 2)}
	err := Run(1, Options{}, func(c *Comm) error {
		r, err := c.Isend(send, 1, dt, 0, 1)
		if err != nil {
			return err
		}
		var recv [][]byte
		if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if len(recv) != 2 || !bytes.Equal(recv[0], send[0]) || !bytes.Equal(recv[1], send[1]) {
			return errors.New("self-send custom mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
