package ucp

import (
	"runtime"
	"testing"

	"mpicd/internal/fabric"
)

// Allocation ceilings per one-way eager message, both ranks and both
// progress goroutines included; the figures are the measured ones. What
// is left is what outlives the call: the two Requests the callers hold (a
// contiguous buffer's datatype state is a field of the request; any other
// datatype adds its one state object per side). A message that arrives
// before its receive adds the entry that buffers it. The Reliable figure
// is measured (6) plus 30 %: on top of the two, the retained copy of the
// payload and what retransmits it on the sender, and the ack queue and
// completed set the acknowledgement passes through.
const (
	postedHitAllocCeiling     = 2
	unexpectedHitAllocCeiling = 3
	multiFragAllocCeiling     = 2
	reliableAllocCeiling      = 8
)

// The same for a one-way rendezvous message, measured (3, 4, 3, 3; 5, 5, 12,
// 5 when every message, stripe and send entry was an object and a goroutine
// of its own) + 1. The two Requests again — the pull's progress and the
// stripes' countdown are fields of the receive's, transfer jobs are values
// in the worker's queue, and starting a puller allocates nothing — plus
// what the send keeps until its FIN (its own 104 bytes: inside the Request
// they cost every eager message more than they saved here). A message that
// arrives before its receive adds the entry that holds its RTS. Striping
// and Reliable add nothing a message.
const (
	rndvPostedHitAllocCeiling     = 4
	rndvUnexpectedHitAllocCeiling = 5
	rndvStripedAllocCeiling       = 4
	rndvReliableAllocCeiling      = 4
)

// TestEagerAllocsPerMessage pins the allocation diet of the eager path, and
// since the transfer executor of the rendezvous path, where it was made. Buffers are boxed once up front, so the caller's own
// conversion to `any` is not counted against the transport.
func TestEagerAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const frag = 1024
	cases := []struct {
		name       string
		cfg        Config
		proto      Proto
		size       int
		unexpected bool
		ceiling    float64
	}{
		{"posted-hit", Config{}, ProtoEager, 64, false, postedHitAllocCeiling},
		{"unexpected-hit", Config{}, ProtoEager, 64, true, unexpectedHitAllocCeiling},
		{"multi-fragment", Config{}, ProtoEager, 3 * frag, false, multiFragAllocCeiling},
		{"reliable", Config{Reliable: true}, ProtoEager, 64, false, reliableAllocCeiling},
		{"rndv-posted-hit", Config{PullStripes: 1}, ProtoRndv, 8212, false, rndvPostedHitAllocCeiling},
		{"rndv-unexpected-hit", Config{PullStripes: 1}, ProtoRndv, 8212, true, rndvUnexpectedHitAllocCeiling},
		{"rndv-striped", Config{PullStripes: 2}, ProtoRndv, 256 << 10, false, rndvStripedAllocCeiling},
		{"rndv-reliable", Config{PullStripes: 1, Reliable: true}, ProtoRndv, 8212, false, rndvReliableAllocCeiling},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := pair(t, fabric.Config{FragSize: frag}, c.cfg)
			var sbuf, rbuf any = pattern(c.size, 3), make([]byte, c.size)
			n := int64(c.size)
			oneWay := func() {
				var rr *Request
				var err error
				if !c.unexpected {
					rr, err = b.Recv(0, 1, exactMask, Contig{}, rbuf, n)
				}
				if err != nil {
					t.Fatal(err)
				}
				sr, err := a.Send(1, 1, Contig{}, sbuf, n, 0, c.proto)
				if err != nil {
					t.Fatal(err)
				}
				if c.unexpected {
					for b.QueueDepths().Unexpected == 0 {
						runtime.Gosched()
					}
					if rr, err = b.Recv(0, 1, exactMask, Contig{}, rbuf, n); err != nil {
						t.Fatal(err)
					}
				}
				if err := WaitAll(sr, rr); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, oneWay)
			t.Logf("%s: %.1f allocs per one-way message", c.name, avg)
			if avg > c.ceiling {
				t.Fatalf("%s allocates %.1f per message, ceiling %.0f", c.name, avg, c.ceiling)
			}
			want := b.Stats().PostedHits.Load()
			if c.unexpected {
				want = b.Stats().UnexpectedHits.Load()
			}
			if want < 200 {
				t.Fatalf("%s: only %d of the messages took the path under test", c.name, want)
			}
			if c.proto == ProtoRndv && (a.Stats().RndvSends.Load() < 200 || (c.cfg.PullStripes > 1) != (b.Stats().StripedPulls.Load() >= 200)) {
				t.Fatalf("%s: %d rendezvous sends, %d striped pulls", c.name, a.Stats().RndvSends.Load(), b.Stats().StripedPulls.Load())
			}
		})
	}
}
