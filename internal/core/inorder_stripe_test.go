package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/layout"
	"mpicd/internal/ucp"
)

// layoutMsg is a message whose head names its region layout — a count
// word, one length word a region, then pad filler bytes — so a receive can
// size its regions only from the head, as double-vec's does. The receive
// side records what an inorder handler must be able to rely on.
type layoutMsg struct {
	regions [][]byte // a send's; a receive's once Regions sized them
	recv    bool

	mu       sync.Mutex
	head     []byte  // a send's packed head; the bytes a receive unpacked so far
	offs     []int64 // receive: Unpack offsets, in call order
	counts   int     // RegionCount calls
	lists    int     // Regions calls
	listedAt int     // receive: head bytes unpacked when Regions ran; -1 before
	late     bool    // receive: an Unpack after Regions
}

func newLayoutSend(pad int, lens ...int) *layoutMsg {
	m := &layoutMsg{head: make([]byte, 8*(len(lens)+1)+pad)}
	layout.PutI64(m.head, 0, int64(len(lens)))
	for i, l := range lens {
		layout.PutI64(m.head, 8*(i+1), int64(l))
		m.regions = append(m.regions, pattern(l, byte(i+1)))
	}
	copy(m.head[8*(len(lens)+1):], pattern(pad, 0x5A))
	return m
}

func newLayoutRecv() *layoutMsg { return &layoutMsg{recv: true, listedAt: -1} }

func (m *layoutMsg) image() []byte {
	img := append([]byte(nil), m.head...)
	for _, r := range m.regions {
		img = append(img, r...)
	}
	return img
}

type layoutHandler struct{}

func (layoutHandler) State(buf any, _ Count) (any, error) { return buf.(*layoutMsg), nil }
func (layoutHandler) FreeState(any) error                 { return nil }
func (layoutHandler) PackedSize(s, _ any, _ Count) (Count, error) {
	return Count(len(s.(*layoutMsg).head)), nil
}
func (layoutHandler) Pack(s, _ any, _, off Count, dst []byte) (Count, error) {
	return Count(copy(dst, s.(*layoutMsg).head[off:])), nil
}
func (layoutHandler) Unpack(s, _ any, _, off Count, src []byte) error {
	m := s.(*layoutMsg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.offs = append(m.offs, off)
	m.late = m.late || m.listedAt >= 0
	if off != Count(len(m.head)) {
		return fmt.Errorf("layoutHandler: head bytes at %d after %d", off, len(m.head))
	}
	m.head = append(m.head, src...)
	return nil
}
func (layoutHandler) RegionCount(s, _ any, _ Count) (Count, error) {
	m := s.(*layoutMsg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts++
	if !m.recv {
		return Count(len(m.regions)), nil
	}
	if len(m.head) < 8 {
		return 0, errors.New("layoutHandler: regions asked for before the head's count")
	}
	return Count(layout.I64(m.head, 0)), nil
}
func (layoutHandler) Regions(s, _ any, _ Count, regions [][]byte) error {
	m := s.(*layoutMsg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lists++
	if m.recv {
		m.listedAt = len(m.head)
		m.regions = make([][]byte, len(regions))
		for i := range m.regions {
			m.regions[i] = make([]byte, layout.I64(m.head, 8*(i+1)))
		}
	}
	copy(regions, m.regions)
	return nil
}

// checkOrderedHead reports what an inorder receive's handler must never
// see: head offsets that do not rise strictly and contiguously from 0, an
// Unpack after its regions were named, regions named before the last head
// byte, or the layout asked for more than once.
func (m *layoutMsg) checkOrderedHead(headLen int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.offs) == 0 || m.offs[0] != 0 {
		return fmt.Errorf("unpack offsets %v do not start at 0", m.offs[:min(len(m.offs), 4)])
	}
	for i := 1; i < len(m.offs); i++ {
		if m.offs[i] <= m.offs[i-1] {
			return fmt.Errorf("unpack offset %d after %d", m.offs[i], m.offs[i-1])
		}
	}
	switch {
	case m.late:
		return errors.New("the head was unpacked after its regions were named")
	case len(m.head) != headLen:
		return fmt.Errorf("%d head bytes unpacked, want %d", len(m.head), headLen)
	case m.lists > 0 && m.listedAt != headLen:
		return fmt.Errorf("Regions ran with %d of %d head bytes unpacked", m.listedAt, headLen)
	case m.counts > 1 || m.lists > 1:
		return fmt.Errorf("RegionCount ran %d times, Regions %d; want once each", m.counts, m.lists)
	}
	return nil
}

type namedWorld struct {
	name string
	open func() pairWorld
}

// pairWorld is two workers over one provider, and how to close them.
type pairWorld struct {
	w     [2]*ucp.Worker
	close func()
}

// inorderWorlds builds two-rank worlds over every provider the tests can
// run here: in-process, TCP on loopback, and SHM in a temp directory.
func inorderWorlds(t *testing.T, cfg ucp.Config) []namedWorld {
	nics := func(nics [2]fabric.NIC, done func()) pairWorld {
		var p pairWorld
		for i := range nics {
			p.w[i] = ucp.NewWorker(nics[i], cfg)
		}
		p.close = func() {
			p.w[0].Close()
			p.w[1].Close()
			done()
		}
		return p
	}
	return []namedWorld{
		{"inproc", func() pairWorld {
			f := fabric.NewInproc(2, fabric.Config{})
			return nics([2]fabric.NIC{f.NIC(0), f.NIC(1)}, func() { f.Close() })
		}},
		{"tcp", func() pairWorld {
			addrs := tcpAddrs(t, 2)
			var (
				n   [2]fabric.NIC
				err [2]error
				wg  sync.WaitGroup
			)
			for i := range n {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var tcp *fabric.TCP
					tcp, err[i] = fabric.NewTCP(i, addrs, fabric.Config{})
					if err[i] == nil {
						n[i] = tcp
					}
				}(i)
			}
			wg.Wait()
			if err := errors.Join(err[:]...); err != nil {
				t.Fatal(err)
			}
			return nics(n, func() { n[0].Close(); n[1].Close() })
		}},
		{"shm", func() pairWorld {
			dir := t.TempDir()
			var n [2]fabric.NIC
			for i := range n {
				shm, err := fabric.NewSHM(i, 2, dir, fabric.Config{})
				if err != nil {
					t.Fatal(err)
				}
				n[i] = shm
			}
			return nics(n, func() { n[0].Close(); n[1].Close() })
		}},
	}
}

// sendLayout moves send from rank 0 to rank 1 of p and returns the receive
// and what went wrong at either end.
func sendLayout(p pairWorld, send *layoutMsg) (*layoutMsg, error) {
	dt := TypeCreateCustom(layoutHandler{}, WithInOrder())
	c0, c1 := NewComm(p.w[0]), NewComm(p.w[1])
	recv := newLayoutRecv()
	done := make(chan error, 1)
	go func() {
		_, err := c1.Recv(recv, 1, dt, 0, 3)
		done <- err
	}()
	err := c0.Send(send, 1, dt, 1, 3)
	return recv, errors.Join(err, <-done)
}

// TestInorderTailStripes: a large inorder message is pulled head first,
// whole and in order — its Unpack offsets rise strictly and all precede
// the regions its last byte named — and then its 1 MiB region tail is
// striped like any other type's, on every provider.
func TestInorderTailStripes(t *testing.T) {
	for _, world := range inorderWorlds(t, ucp.Config{PullStripes: 2}) {
		t.Run(world.name, func(t *testing.T) {
			p := world.open()
			defer p.close()
			lens := make([]int, 256)
			for i := range lens {
				lens[i] = 4<<10 + i%7 - 3 // 1 MiB, some regions off the 4 KiB grid
			}
			send := newLayoutSend(40<<10, lens...) // a head of several fragments
			st := p.w[1].Stats()
			striped, seq := st.StripedPulls.Load(), st.SequentialPulls.Load()
			recv, err := sendLayout(p, send)
			if err != nil {
				t.Fatal(err)
			}
			if d := [2]int64{st.StripedPulls.Load() - striped, st.SequentialPulls.Load() - seq}; d != [2]int64{1, 0} {
				t.Fatalf("striped, sequential pulls = %v, want [1 0]", d)
			}
			if err := recv.checkOrderedHead(len(send.head)); err != nil {
				t.Fatal(err)
			}
			if recv.counts != 1 || recv.lists != 1 {
				t.Fatalf("RegionCount ran %d times, Regions %d; want once each", recv.counts, recv.lists)
			}
			if !bytes.Equal(recv.image(), send.image()) {
				t.Fatal("the received message differs")
			}
		})
	}
}

// stripeFaultNIC runs the Gets that start at off through a FaultNIC and
// every other straight on the NIC: a fault plan aimed at one stripe. It
// records the range of every Get.
type stripeFaultNIC struct {
	fabric.NIC
	fault *fabric.FaultNIC
	off   int64

	mu   sync.Mutex
	gets [][2]int64
}

func (n *stripeFaultNIC) Get(from int, key uint64, off int64, sink fabric.Sink, sinkOff, size int64) error {
	n.mu.Lock()
	n.gets = append(n.gets, [2]int64{off, size})
	aimed := off == n.off
	n.mu.Unlock()
	if aimed {
		return n.fault.Get(from, key, off, sink, sinkOff, size)
	}
	return n.NIC.Get(from, key, off, sink, sinkOff, size)
}

// TestInorderStripeFailureRepullsTailOnly: a tail stripe whose Get fails
// past its retries makes the pull fetch the tail again as one Get — not
// the head, whose Unpack never sees offset 0 twice — and the message
// arrives whole. A pure-pack inorder type, all head, still never stripes,
// and a failed Get of a head is not retried: its Unpack cannot rewind.
func TestInorderStripeFailureRepullsTailOnly(t *testing.T) {
	const getTries = 1 + 3 // a Get and ucp's getRetries retries
	lens := []int{300 << 10, 212 << 10, 512 << 10}
	send := newLayoutSend(10<<10, lens...)
	head, n := int64(len(send.head)), int64(len(send.image()))
	chunk := (n - head + 1) / 2
	f := fabric.NewInproc(2, fabric.Config{})
	defer f.Close()
	var rx *stripeFaultNIC
	p := pairWorld{}
	cfg := ucp.Config{PullStripes: 2, RexmitBase: time.Millisecond, RexmitMax: 5 * time.Millisecond}
	p.w[0] = ucp.NewWorker(f.NIC(0), cfg)
	rx = &stripeFaultNIC{NIC: f.NIC(1), off: head + chunk, fault: fabric.WrapFault(f.NIC(1), fabric.FaultPlan{
		Seed: 1, Rules: []fabric.FaultRule{{Peer: -1, Action: fabric.FailGet, Prob: 1, Count: getTries}}})}
	p.w[1] = ucp.NewWorker(rx, cfg)
	defer p.w[0].Close()
	defer p.w[1].Close()

	st := p.w[1].Stats()
	recv, err := sendLayout(p, send)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv.image(), send.image()) {
		t.Fatal("the received message differs")
	}
	if err := recv.checkOrderedHead(int(head)); err != nil {
		t.Fatal(err)
	}
	if got := st.StripeFallbacks.Load(); got != 1 {
		t.Fatalf("stripe fallbacks = %d, want 1", got)
	}
	rx.mu.Lock()
	gets := append([][2]int64(nil), rx.gets...)
	rx.mu.Unlock()
	var heads, repulls, failed int
	for _, g := range gets {
		switch g {
		case [2]int64{0, head}:
			heads++
		case [2]int64{head, n - head}:
			repulls++
		case [2]int64{head + chunk, n - head - chunk}:
			failed++
		}
	}
	if heads != 1 || repulls != 1 || failed != getTries || len(gets) != 2+getTries+1 {
		t.Fatalf("Gets %v: want the head once, the failing stripe %d times, the other stripe and one re-pull of [%d, %d)",
			gets, getTries, head, n)
	}

	// All head: one Get, never split, with striping configured and the
	// fault plan spent.
	pure := newLayoutSend(1<<20 + 8)
	striped, seq := st.StripedPulls.Load(), st.SequentialPulls.Load()
	recv, err = sendLayout(p, pure)
	if err != nil {
		t.Fatal(err)
	}
	if d := [2]int64{st.StripedPulls.Load() - striped, st.SequentialPulls.Load() - seq}; d != [2]int64{0, 1} {
		t.Fatalf("pure-pack inorder: striped, sequential pulls = %v, want [0 1]", d)
	}
	if err := recv.checkOrderedHead(len(pure.head)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv.image(), pure.image()) {
		t.Fatal("the received pure-pack message differs")
	}

	rx.mu.Lock()
	rx.off = 0
	rx.mu.Unlock()
	rule := rx.fault.AddRule(fabric.FaultRule{Peer: -1, Action: fabric.FailGet, Prob: 1, Count: 1})
	retries := st.GetRetries.Load()
	if _, err := sendLayout(p, pure); err == nil {
		t.Fatal("a pull whose head Get failed succeeded")
	}
	if rx.fault.RuleFired(rule) != 1 || st.GetRetries.Load() != retries {
		t.Fatalf("head Get failed %d times, retried %d; want once, never",
			rx.fault.RuleFired(rule), st.GetRetries.Load()-retries)
	}
}
