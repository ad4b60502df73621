package ucp

import (
	"encoding/binary"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// fuzzKinds are the packet kinds a worker accepts from another rank.
var fuzzKinds = []fabric.Kind{kindEager, kindRTS, kindFIN, kindAbort, kindEagerAck}

const fuzzRecLen = 12 // bytes of header description before a record's payload

// fuzzRec encodes one inbound packet the way FuzzWorkerInbound decodes it.
// big picks which of offset (1) and total (2) are scaled up to values no
// buffer could hold.
func fuzzRec(kind int, flags uint8, tag, id uint8, off, total int16, aux0, aux1 int8, big uint8, payload []byte) []byte {
	r := make([]byte, fuzzRecLen, fuzzRecLen+len(payload))
	r[0], r[1], r[2], r[3] = byte(kind), flags, tag, id
	binary.LittleEndian.PutUint16(r[4:], uint16(off))
	binary.LittleEndian.PutUint16(r[6:], uint16(total))
	r[8], r[9], r[10], r[11] = byte(aux0), byte(aux1), big, byte(len(payload))
	return append(r, payload...)
}

func fuzzSeq(cfg byte, recs ...[]byte) []byte {
	out := []byte{cfg}
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// FuzzWorkerInbound feeds a worker whatever another rank could put on the
// wire: arbitrary headers over the five kinds it handles, in any order,
// against a few posted receives (one of them in-order) and one claimed
// message, with Reliable on and off. Whatever arrives, the worker neither
// panics nor hangs, every posted request completes once it is closed, and
// every wire packet goes back to the pool.
func FuzzWorkerInbound(f *testing.F) {
	p := pattern(200, 5)
	rel := flagReliable
	// The shapes handleEager branches on, then the other kinds.
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 1, 0, 40, 0, 0, 0, p[:40])))                                                                                            // whole first fragment, receive posted
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 1, 0, 60, 0, 0, 0, p[:30]), fuzzRec(0, 0, 0, 1, 30, 60, 0, 0, 0, p[:30])))                                              // two fragments in order
	f.Add(fuzzSeq(1, fuzzRec(0, rel, 1, 2, 30, 60, 0, 0, 0, p[:30]), fuzzRec(0, rel, 1, 2, 0, 60, 0, 0, 0, p[:30])))                                          // later fragment first
	f.Add(fuzzSeq(1, fuzzRec(0, rel, 0, 3, 0, 20, 0, 0, 0, p[:20]), fuzzRec(0, rel, 0, 3, 0, 20, 0, 0, 0, p[:20])))                                           // duplicate of a completed message
	f.Add(fuzzSeq(1, fuzzRec(0, rel, 3, 7, 10, 100, 0, 0, 0, p[:10]), fuzzRec(0, rel, 3, 7, 10, 100, 0, 0, 0, p[:5])))                                        // claimed message: more, then a shorter copy
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 2, 4, 20, 60, 0, 0, 0, p[:20]), fuzzRec(0, 0, 2, 4, 0, 60, 0, 0, 0, p[:20])))                                              // in-order sink, out-of-order arrival
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 2, 4, 0, 60, 0, 0, 0, p[:30]), fuzzRec(0, 0, 2, 4, 55, 60, 0, 0, 0, p[:5]), fuzzRec(0, 0, 2, 4, 30, 60, 0, 0, 0, p[:30]))) // in-order sink finished with a fragment still held back
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 0, 0, 0, 0, 0, nil)))                                                                                                // empty message
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 0, -5, 0, 0, 0, p[:4])))                                                                                             // negative total
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 90, 40, 0, 0, 0, p[:4])))                                                                                            // offset past total
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 0, 10, 0, 0, 0, p[:50])))                                                                                            // payload longer than total
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 1, 2, 0, 0, 3, p[:8])))                                                                                              // offset and total near the int64 range
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 5, 0, 100, 0, 0, 2, p[:8])))                                                                                            // total no buffer can hold
	f.Add(fuzzSeq(0, fuzzRec(0, flagCRC, 0, 6, 0, 8, 0, 1, 0, p[:8])))                                                                                        // checksum that cannot match
	f.Add(fuzzSeq(1, fuzzRec(1, 0, 0, 8, 0, 32, 0, 9, 0, nil), fuzzRec(1, 0, 0, 8, 0, 32, 0, 9, 0, nil)))                                                     // RTS for an unknown key, twice
	f.Add(fuzzSeq(0, fuzzRec(1, 0, 1, 9, 0, -1, 0, 0, 0, nil)))                                                                                               // RTS with a negative total
	f.Add(fuzzSeq(0, fuzzRec(0, 0, 0, 1, 0, 60, 0, 0, 0, p[:30]), fuzzRec(3, 0, 0, 1, 0, 60, 0, 0, 0, []byte("boom"))))                                       // abort of an active receive
	f.Add(fuzzSeq(0, fuzzRec(3, 0, 0, 11, 0, 60, 0, 0, 0, []byte("early"))))                                                                                  // abort before any fragment
	f.Add(fuzzSeq(1, fuzzRec(2, 0, 0, 1, 0, 0, 1, 0, 0, nil), fuzzRec(4, 0, 0, 1, 0, 0, 1, 0, 0, nil)))                                                       // stray FIN and ack

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{FragSize: 256, Reliable: data[0]&1 != 0, RexmitBase: time.Millisecond, RexmitMax: 5 * time.Millisecond}
		fab := fabric.NewInproc(2, fabric.Config{FragSize: 256})
		raw := fab.NIC(0)
		w := NewWorker(fab.NIC(1), cfg)
		// Rank 0 is not a worker: drop the acks and FINs sent back to it.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				pkt, ok := raw.Recv()
				if !ok {
					return
				}
				pkt.Release()
			}
		}()

		// One claimed message, still missing most of its bytes.
		if err := raw.Send(1, fabric.Header{Kind: kindEager, Tag: 3, MsgID: 7, Total: 100}, p[:10]); err != nil {
			t.Fatal(err)
		}
		claimed, err := w.Mprobe(0, 3, exactMask, true)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []*Request
		post := func(tag Tag, dt Datatype) {
			r, err := w.Recv(0, tag, exactMask, dt, make([]byte, 64), 64)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		post(0, Contig{})
		post(0, Contig{})
		post(1, Contig{})
		post(2, Generic{Ops: &xorOps{}, InOrder: true})
		post(9, Contig{}) // the end marker below

		for rest := data[1:]; len(rest) >= fuzzRecLen; {
			r := rest[:fuzzRecLen]
			n := int(r[11])
			if n > len(rest)-fuzzRecLen {
				n = len(rest) - fuzzRecLen
			}
			payload := rest[fuzzRecLen : fuzzRecLen+n]
			rest = rest[fuzzRecLen+n:]
			hdr := fabric.Header{
				Kind:   fuzzKinds[int(r[0])%len(fuzzKinds)],
				Flags:  r[1],
				Tag:    uint64(r[2] % 4),
				MsgID:  uint64(r[3] % 12),
				Offset: int64(int16(binary.LittleEndian.Uint16(r[4:]))),
				Total:  int64(int16(binary.LittleEndian.Uint16(r[6:]))),
				Aux0:   int64(int8(r[8])),
				Aux1:   int64(int8(r[9])),
			}
			if r[10]&1 != 0 {
				hdr.Offset <<= 47
			}
			if r[10]&2 != 0 {
				hdr.Total <<= 47
			}
			if err := raw.Send(1, hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
		// The inbox is in order: once the marker is delivered, the worker
		// has handled everything sent before it.
		if err := raw.Send(1, fabric.Header{Kind: kindEager, Tag: 9, MsgID: 1 << 40, Total: 1}, p[:1]); err != nil {
			t.Fatal(err)
		}
		if err := reqs[len(reqs)-1].WaitTimeout(10 * time.Second); err != nil {
			t.Fatalf("the worker stopped handling packets: %v", err)
		}
		if data[0]&2 != 0 {
			r, err := w.MRecv(claimed, Contig{}, make([]byte, 100), 100)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}

		closed := make(chan struct{})
		go func() { w.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatal("Close did not return within a second")
		}
		for i, r := range reqs {
			if done, _ := r.Test(); !done {
				t.Fatalf("request %d is still pending after Close", i)
			}
		}
		raw.Close()
		<-drained
		poolDrained(t, fab)
	})
}
