package fabric

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// failingSink refuses every write.
type failingSink struct{ size int64 }

func (s failingSink) Size() int64 { return s.size }
func (failingSink) WriteAt([]byte, int64) (int, error) {
	return 0, errors.New("sink refuses the write")
}

// TestStreamGetSinkErrorKeepsReading: a Get whose sink fails every write
// ends with the sink's error, and the connection's read loop goes on
// reading: 300 Gets of 256 KiB in 1 KiB response frames, each followed by a
// 1-byte Send the other way, which must arrive within 3 s. A Get completed
// by a blocking send on its one-slot channel parked the reader on the
// second failed frame, and with it every later frame from the peer,
// heartbeats included.
func TestStreamGetSinkErrorKeepsReading(t *testing.T) {
	nics := dialMesh(t, 2, Config{FragSize: 1024})
	const size = 256 << 10
	key := nics[0].Register(Bytes(make([]byte, size)))
	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	for i := 0; i < rounds; i++ {
		if err := nics[1].Get(0, key, 0, failingSink{size}, 0, size); err == nil {
			t.Fatalf("Get %d into a failing sink succeeded", i)
		}
		if err := nics[0].Send(1, Header{Kind: 5, Tag: uint64(i)}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		got := make(chan *Packet, 1)
		go func() {
			pkt, _ := nics[1].Recv()
			got <- pkt
		}()
		select {
		case pkt := <-got:
			if pkt == nil || pkt.Hdr.Tag != uint64(i) {
				t.Fatalf("after Get %d: %+v, want the frame tagged %d", i, pkt, i)
			}
			pkt.Release()
		case <-time.After(3 * time.Second):
			t.Fatalf("after Get %d the read loop took no frame for 3 s", i)
		}
	}
}

// rawPeer connects to s as rank 1 with a valid hello and returns the socket
// once s installed the connection.
func rawPeer(t testing.TB, s *stream) net.Conn {
	t.Helper()
	c, err := net.Dial(s.network, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], 1)
	var verdict [5]byte
	if _, err := c.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, verdict[:]); err != nil || verdict[0] != helloAccept {
		t.Fatalf("hello answered %#x, %v", verdict[0], err)
	}
	for s.connGen[1].Load() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return c
}

// rawFrame encodes a frame as writeFrame does, with the length word given.
func rawFrame(plen uint32, hdr Header, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, plen)
	var hb [headerWireSize]byte
	encodeHeader(&hb, hdr)
	return append(append(b, hb[:]...), payload...)
}

// TestStreamOversizeFrameDropsConn: a length word above MaxFragSize, which
// no writer frames, drops the connection as corrupt at once — it does not
// wait for (or allocate) the bytes it claims.
func TestStreamOversizeFrameDropsConn(t *testing.T) {
	s, err := newStream("unix", 0, 2, filepath.Join(t.TempDir(), "s"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := rawPeer(t, s)
	defer c.Close()
	if _, err := c.Write(rawFrame(MaxFragSize+1, Header{Kind: 5}, nil)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the endpoint kept a connection that framed %d bytes: read %v", MaxFragSize+1, err)
	}
	if n := s.connDrops.Load(); n != 1 {
		t.Fatalf("%d connection drops, want 1", n)
	}
}

// FuzzStreamFrames writes arbitrary bytes to a stream endpoint after a
// valid hello, as a peer with a broken writer would. Whatever they hold, the
// endpoint does not panic, delivers no payload above MaxFragSize, closes,
// and has every pooled buffer back once the connection is gone.
func FuzzStreamFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(rawFrame(3, Header{Kind: 5, Tag: 7, Total: 3}, []byte{1, 2, 3}))
	f.Add(rawFrame(MaxFragSize, Header{Kind: 5}, nil))
	f.Add(rawFrame(MaxFragSize+1, Header{Kind: 5}, nil))
	f.Add(rawFrame(0xFFFFFFFF, Header{}, nil))
	f.Add(rawFrame(10, Header{Kind: 5}, []byte{1}))
	f.Add(rawFrame(0, Header{Kind: kindGetReq, Total: 10, Aux1: 99}, nil))
	f.Add(rawFrame(2, Header{Kind: kindGetResp, MsgID: 1}, []byte{1, 2}))
	f.Add(rawFrame(4, Header{Kind: kindGetErr, MsgID: 1}, []byte("oops")))
	f.Add(append(rawFrame(1, Header{Kind: 0xFA}, []byte{9}), rawFrame(0, Header{Kind: 6}, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := newStream("unix", 0, 2, filepath.Join(t.TempDir(), "s"), Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := rawPeer(t, s)
		if _, err := c.Write(data); err != nil {
			t.Fatal(err)
		}
		c.Close()
		// Take what the read loop delivers until it dropped the connection
		// and let go of its buffers.
		deadline := time.Now().Add(5 * time.Second)
		for {
			select {
			case pkt := <-s.inbox:
				if len(pkt.Payload) > MaxFragSize {
					t.Fatalf("a %d-byte payload was delivered", len(pkt.Payload))
				}
				pkt.Release()
				continue
			default:
			}
			s.connsMu.RLock()
			gone := s.conns[1] == nil && len(s.draining) == 0
			s.connsMu.RUnlock()
			if gone && s.PoolOutstanding() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("connection gone %v, %d pooled buffers out 5 s after the peer closed", gone, s.PoolOutstanding())
			}
			time.Sleep(50 * time.Microsecond)
		}
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return")
		}
		if n := s.PoolOutstanding(); n != 0 {
			t.Fatalf("%d pooled buffers out after Close", n)
		}
	})
}
