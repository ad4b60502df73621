package fabric

// TCP is a fabric provider connecting separate processes over real
// sockets. Gather sends use net.Buffers (writev) so region lists reach the
// kernel without an intermediate application copy, mirroring how UCX hands
// an iovec to the verbs layer. It is a thin specialization of the shared
// byte-stream core (see stream.go), which also carries the SHM provider's
// control plane over unix sockets.
//
// Connections are established lazily: the first send toward a peer dials
// it, so a rank that talks to k peers holds k sockets instead of Size-1.
// Broken connections are redialed with exponential backoff by the higher
// rank; while a link is down, sends to and Gets from that peer fail with
// ErrLinkDown so the transport layer can retry.
type TCP struct {
	*stream
}

// ListenTCP binds rank's endpoint at bind (which may name an ephemeral
// port, e.g. "127.0.0.1:0") without requiring the peer address table yet.
// The bound address is available from Addr for a bootstrap exchange;
// Join supplies the table once every rank has reported in.
func ListenTCP(rank, size int, bind string, cfg Config) (*TCP, error) {
	s, err := newStream("tcp", rank, size, bind, cfg)
	if err != nil {
		return nil, err
	}
	return &TCP{stream: s}, nil
}

// Join provides the full peer address table (addrs[i] is rank i's bound
// address). It returns immediately; connections come up on first use.
func (t *TCP) Join(addrs []string) error { return t.join(addrs) }

// NewTCP attaches rank to a TCP fabric whose rank i listens at addrs[i] —
// the single-call path for callers that know every address up front.
// Equivalent to ListenTCP followed by Join.
func NewTCP(rank int, addrs []string, cfg Config) (*TCP, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, rangeErr("local", rank, len(addrs))
	}
	t, err := ListenTCP(rank, len(addrs), addrs[rank], cfg)
	if err != nil {
		return nil, err
	}
	if err := t.Join(addrs); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}
