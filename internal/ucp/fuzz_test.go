package ucp

import (
	"encoding/binary"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// fuzzKinds are the packet kinds a worker accepts from another rank.
var fuzzKinds = []fabric.Kind{kindEager, kindRTS, kindFIN, kindAbort, kindEagerAck, kindPing, kindPong, kindBye, kindByeAck}

const fuzzRecLen = 12 // bytes of header description before a record's payload

// fuzzRec encodes one inbound packet the way FuzzWorkerInbound decodes it.
// big picks which of offset (1) and total (2) are scaled up to values no
// buffer could hold, and whether aux0 (4) — a bye's count — is scaled far
// past any frame count.
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
// wire: arbitrary headers over the nine kinds it handles, in any order,
// against a few posted receives (one of them in-order), one claimed message
// still missing most of its bytes, an eager and a rendezvous send of its own
// awaiting their answers (ids 1 and 2) and, when cfg bit 2 is set, a blocked
// Mprobe posted ahead of the tag-1 receive — with Reliable on and off. The
// Reliable worker's NIC states a cross-process link, so it counts frames and
// answers byes, whatever count they carry; it sends none itself, and the
// unacked worker is in-process and does not drain, so Close never waits on
// rank 0. Whatever arrives, the worker neither panics nor hangs, every
// request and the prober complete once it is closed, and every wire packet
// goes back to the pool.
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
	f.Add(fuzzSeq(0, fuzzRec(5, 0, 0, 0, 0, 0, 9, 0, 0, nil), fuzzRec(6, 0, 0, 0, 0, 0, -3, 0, 0, nil)))                                                      // ping, and a pong with a bad clock
	// Byes: a count reached by the frames after it, one already reached, a
	// negative and a huge one, and an answer to a bye nobody sent.
	for _, cfg := range []byte{0, 1} {
		f.Add(fuzzSeq(cfg, fuzzRec(7, 0, 0, 0, 0, 0, 2, 0, 0, nil), fuzzRec(0, 0, 0, 1, 0, 40, 0, 0, 0, p[:40]), fuzzRec(0, 0, 1, 2, 0, 20, 0, 0, 0, p[:20])))
		f.Add(fuzzSeq(cfg, fuzzRec(0, 0, 0, 1, 0, 40, 0, 0, 0, p[:40]), fuzzRec(7, 0, 0, 0, 0, 0, 1, 0, 0, nil), fuzzRec(7, 0, 0, 0, 0, 0, 1, 0, 0, nil)))
		f.Add(fuzzSeq(cfg, fuzzRec(7, 0, 0, 0, 0, 0, -7, 0, 0, nil), fuzzRec(7, 0, 0, 0, 0, 0, 100, 0, 4, nil), fuzzRec(7, 0, 0, 0, 0, 0, -100, 0, 4, nil), fuzzRec(8, 0, 0, 0, 0, 0, 0, 0, 0, nil)))
	}
	// A blocked Mprobe takes the first tag-1 message as a claimed entry of
	// the unexpected queue; its later fragments, copies and an abort are
	// routed there, and the receive behind it takes the next message.
	for _, cfg := range []byte{4, 5, 6, 7} {
		r := uint8(cfg&1) * rel
		f.Add(fuzzSeq(cfg, fuzzRec(0, r, 1, 2, 0, 60, 0, 0, 0, p[:30]), fuzzRec(0, r, 1, 2, 30, 60, 0, 0, 0, p[:30]), fuzzRec(0, r, 1, 3, 0, 20, 0, 0, 0, p[:20])))
		f.Add(fuzzSeq(cfg, fuzzRec(0, r, 1, 2, 30, 60, 0, 0, 0, p[:30]), fuzzRec(0, r, 1, 2, 30, 60, 0, 0, 0, p[:30]), fuzzRec(3, 0, 1, 2, 0, 60, 0, 0, 0, []byte("late"))))
		f.Add(fuzzSeq(cfg, fuzzRec(1, 0, 1, 2, 0, 32, 0, 9, 0, nil), fuzzRec(1, 0, 1, 2, 0, 32, 0, 9, 0, nil)))   // the claim is a rendezvous message, its RTS repeated
		f.Add(fuzzSeq(cfg, fuzzRec(1, 0, 1, 2, 0, 32, 0, 9, 0, nil), fuzzRec(0, r, 0, 2, 8, 32, 0, 0, 0, p[:8]))) // ... then an eager fragment under its id
	}
	// The message claimed up front (tag 3, id 7, 10 of 100 bytes in hand)
	// mid-buffer: completed, overlapped, corrupted and aborted, then MRecv'd.
	for _, cfg := range []byte{2, 3} {
		r := uint8(cfg&1) * rel
		f.Add(fuzzSeq(cfg, fuzzRec(0, r, 3, 7, 10, 100, 0, 0, 0, p[:40]), fuzzRec(0, r, 3, 7, 50, 100, 0, 0, 0, p[:50])))
		f.Add(fuzzSeq(cfg, fuzzRec(0, r, 3, 7, 50, 100, 0, 0, 0, p[:50]), fuzzRec(0, r, 3, 7, 0, 100, 0, 0, 0, p[:10]), fuzzRec(0, r, 3, 7, 10, 100, 0, 0, 0, p[:40])))
		f.Add(fuzzSeq(cfg, fuzzRec(0, r|flagCRC, 3, 7, 10, 100, 0, 1, 0, p[:40]), fuzzRec(0, r, 3, 7, 10, 100, 0, 0, 0, p[:90])))
		f.Add(fuzzSeq(cfg, fuzzRec(0, r, 3, 7, 10, 100, 0, 0, 0, p[:40]), fuzzRec(3, 0, 3, 7, 0, 100, 0, 0, 0, []byte("gone"))))
	}
	// Answers to the worker's own sends, which wait in one table: the right
	// kind, the wrong kind, failures and duplicates.
	for _, cfg := range []byte{0, 1} {
		f.Add(fuzzSeq(cfg, fuzzRec(4, 0, 0, 1, 0, 0, 0, 0, 0, nil), fuzzRec(2, 0, 0, 2, 0, 0, 0, 0, 0, nil), fuzzRec(2, 0, 0, 2, 0, 0, 0, 0, 0, nil)))
		f.Add(fuzzSeq(cfg, fuzzRec(2, 0, 0, 1, 0, 0, 0, 0, 0, nil), fuzzRec(4, 0, 0, 2, 0, 0, 0, 0, 0, nil), fuzzRec(4, 0, 0, 1, 0, 0, 1, 0, 0, nil), fuzzRec(2, 0, 0, 2, 0, 0, 1, 0, 0, nil)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Reliable: data[0]&1 != 0, RexmitBase: time.Millisecond, RexmitMax: 5 * time.Millisecond}
		fab := fabric.NewInproc(2, fabric.Config{FragSize: 256})
		raw := fab.NIC(0)
		nic := fab.NIC(1)
		if cfg.Reliable {
			nic = newCrossProcess(nic)
		}
		w := NewWorker(nic, cfg)
		// Rank 0 is not a worker: drop the acks, FINs, pongs and bye answers
		// sent back to it.
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
		// The worker's own sends: rank 0 answers only what the input says.
		for tag, proto := range []Proto{ProtoEager, ProtoRndv} {
			r, err := w.Send(0, Tag(tag), Contig{}, p[:80], 80, 0, proto)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		var prober <-chan probeResult
		if data[0]&4 != 0 {
			prober = goProbe(w, 0, 1, true)
			waitPosted(t, w, 1)
		}
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
			if r[10]&4 != 0 {
				hdr.Aux0 <<= 55
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
			mrecv := func(m *Message) {
				r, err := w.MRecv(m, Contig{}, make([]byte, 100), 100)
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, r)
			}
			mrecv(claimed)
			select {
			case got := <-prober:
				prober = nil
				if got.err == nil {
					mrecv(got.m)
				}
			default: // no prober, or nothing of tag 1 arrived for it
			}
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
		if prober != nil {
			awaitProbe(t, "the Mprobe, after Close,", prober)
		}
		raw.Close()
		<-drained
		poolDrained(t, fab)
	})
}
