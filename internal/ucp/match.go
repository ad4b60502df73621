package ucp

import "slices"

// Sharded tag-match table. The worker's two matching queues — posted
// receives and unexpected messages — were flat slices, so every match,
// probe and failure sweep scanned entries for all peers. At a few ranks
// that is fine; at 128–256 ranks a busy worker's unexpected queue mixes
// traffic from every peer and each incoming fragment pays a scan
// proportional to the whole backlog. The table shards both queues by
// peer rank so the common case — a receive naming its source, a fragment
// looking up its message — touches only the one shard that can hold a
// match.
//
// MPI ordering semantics survive sharding through sequence stamps:
//
//   - posted receives carry postSeq; a message matches the
//     earliest-posted receive among its sender's shard and the separate
//     AnySource list (the two candidates' stamps are compared).
//   - unexpected messages carry arriveSeq; an AnySource receive matches
//     the earliest arrival across all shards, and a source-specific
//     receive matches the earliest within its shard — which is exactly
//     per-sender arrival order, the only order MPI guarantees.
//
// A message claimed by Mprobe stays in its sender's shard, flagged claimed,
// until MRecv takes it: matching and probing skip it, but fragments still
// arriving, aborts and failure sweeps find it where they find every other
// buffered message. A blocked Probe or Mprobe is a posted request
// (Request.probe) and takes its turn in posting order like a receive.
//
// The table is not separately locked: every method requires the worker's
// mu, exactly like the slices it replaces. Sharding here buys scan
// locality, not lock concurrency — the worker lock is held for a bounded
// walk of one shard instead of the whole queue.

// matchShards is the shard count (power of two so the index is a mask).
// Ranks hash by low bits; 16 shards keep per-shard scans short up to a
// few hundred ranks without bloating small workers.
const matchShards = 16

func matchShard(from int) int { return from & (matchShards - 1) }

// matchTable holds both matching queues. Zero value is ready to use.
type matchTable struct {
	postSeq   uint64
	arriveSeq uint64

	posted    [matchShards][]*Request // source-specific receives, by from
	postedAny []*Request              // AnySource receives (from < 0)
	nPosted   int

	unexpected [matchShards][]*unexMsg // buffered messages, by sender
	nUnex      int                     // claimed ones included
	nClaimed   int
}

func (t *matchTable) lenPosted() int     { return t.nPosted }
func (t *matchTable) lenUnexpected() int { return t.nUnex - t.nClaimed }
func (t *matchTable) lenClaimed() int    { return t.nClaimed }

// addPosted appends a receive or blocked probe in posting order.
func (t *matchTable) addPosted(r *Request) {
	t.postSeq++
	r.postSeq = t.postSeq
	if r.from < 0 {
		t.postedAny = append(t.postedAny, r)
	} else {
		sh := matchShard(r.from)
		t.posted[sh] = append(t.posted[sh], r)
	}
	t.nPosted++
}

// removePosted removes a specific receive (CancelRecv), reporting whether
// it was still queued.
func (t *matchTable) removePosted(r *Request) bool {
	list := &t.postedAny
	if r.from >= 0 {
		list = &t.posted[matchShard(r.from)]
	}
	i := slices.Index(*list, r)
	if i >= 0 {
		*list = slices.Delete(*list, i, i+1)
		t.nPosted--
	}
	return i >= 0
}

// matchPosted finds and removes the earliest-posted receive matching a
// message from rank from carrying tag: the first match in the sender's
// shard raced against the first match in the AnySource list, decided by
// postSeq.
func (t *matchTable) matchPosted(from int, tag Tag) *Request {
	sh := matchShard(from)
	si := -1
	for i, r := range t.posted[sh] {
		if matches(r, from, tag) {
			si = i
			break
		}
	}
	ai := -1
	for i, r := range t.postedAny {
		if matches(r, from, tag) {
			ai = i
			break
		}
	}
	switch {
	case si < 0 && ai < 0:
		return nil
	case ai < 0 || (si >= 0 && t.posted[sh][si].postSeq < t.postedAny[ai].postSeq):
		r := t.posted[sh][si]
		t.posted[sh] = append(t.posted[sh][:si], t.posted[sh][si+1:]...)
		t.nPosted--
		return r
	default:
		r := t.postedAny[ai]
		t.postedAny = append(t.postedAny[:ai], t.postedAny[ai+1:]...)
		t.nPosted--
		return r
	}
}

// filterPosted removes every receive keep rejects and returns them in
// posting order (callers complete them outside the worker lock).
func (t *matchTable) filterPosted(keep func(*Request) bool) []*Request {
	var removed []*Request
	filter := func(list []*Request) []*Request {
		kept := list[:0]
		for _, r := range list {
			if keep(r) {
				kept = append(kept, r)
			} else {
				removed = append(removed, r)
			}
		}
		return kept
	}
	for sh := range t.posted {
		t.posted[sh] = filter(t.posted[sh])
	}
	t.postedAny = filter(t.postedAny)
	t.nPosted -= len(removed)
	return removed
}

// takeAllPosted empties the posted queues and returns the receives.
func (t *matchTable) takeAllPosted() []*Request {
	all := make([]*Request, 0, t.nPosted)
	for sh := range t.posted {
		all = append(all, t.posted[sh]...)
		t.posted[sh] = nil
	}
	all = append(all, t.postedAny...)
	t.postedAny = nil
	t.nPosted = 0
	return all
}

// addUnexpected appends a message (already claimed, when a blocked Mprobe
// was waiting for it) in arrival order.
func (t *matchTable) addUnexpected(m *unexMsg) {
	t.arriveSeq++
	m.arriveSeq = t.arriveSeq
	sh := matchShard(m.from)
	t.unexpected[sh] = append(t.unexpected[sh], m)
	t.nUnex++
	if m.claimed {
		t.nClaimed++
	}
}

// claim reserves a queued message for a later MRecv: it stays where it is,
// out of matching's sight.
func (t *matchTable) claim(m *unexMsg) {
	m.claimed = true
	t.nClaimed++
}

// probeEarliest locates (without removing) the earliest-arrival unclaimed
// message matching req: first match in the source's shard, or the minimum
// arriveSeq among each shard's first match for AnySource.
func (t *matchTable) probeEarliest(req *Request) *unexMsg {
	if req.from >= 0 {
		for _, m := range t.unexpected[matchShard(req.from)] {
			if !m.claimed && matches(req, m.from, m.tag) {
				return m
			}
		}
		return nil
	}
	var best *unexMsg
	for sh := range t.unexpected {
		for _, m := range t.unexpected[sh] {
			if m.claimed || !matches(req, m.from, m.tag) {
				continue
			}
			if best == nil || m.arriveSeq < best.arriveSeq {
				best = m
			}
			break // shard is arrival-ordered; later entries can't beat m
		}
	}
	return best
}

// matchUnexpected finds and removes the earliest-arrival message
// matching req.
func (t *matchTable) matchUnexpected(req *Request) *unexMsg {
	m := t.probeEarliest(req)
	if m != nil {
		t.removeUnexpected(m)
	}
	return m
}

// removeUnexpected removes a specific message (a match, or the MRecv of a
// claimed one), reporting whether it was still queued.
func (t *matchTable) removeUnexpected(m *unexMsg) bool {
	sh := matchShard(m.from)
	i := slices.Index(t.unexpected[sh], m)
	if i >= 0 {
		t.unexpected[sh] = slices.Delete(t.unexpected[sh], i, i+1)
		t.nUnex--
		if m.claimed {
			t.nClaimed--
		}
	}
	return i >= 0
}

// findUnexpected locates the buffered message for key, claimed or not,
// scanning only its sender's shard (the hot path for mid-message eager
// fragments).
func (t *matchTable) findUnexpected(key msgKey) *unexMsg {
	for _, m := range t.unexpected[matchShard(key.from)] {
		if m.from == key.from && m.id == key.id {
			return m
		}
	}
	return nil
}

// forEachUnexpected visits every buffered message, claimed ones included
// (failure poisoning).
func (t *matchTable) forEachUnexpected(fn func(*unexMsg)) {
	for sh := range t.unexpected {
		for _, m := range t.unexpected[sh] {
			fn(m)
		}
	}
}

// filterUnexpected removes every unclaimed message keep rejects and returns
// them (janitor reaping of stale errored entries, Revive's purge). A
// claimed message has an owner holding its handle and stays for the MRecv.
func (t *matchTable) filterUnexpected(keep func(*unexMsg) bool) []*unexMsg {
	var removed []*unexMsg
	for sh := range t.unexpected {
		kept := t.unexpected[sh][:0]
		for _, m := range t.unexpected[sh] {
			if m.claimed || keep(m) {
				kept = append(kept, m)
			} else {
				removed = append(removed, m)
			}
		}
		t.unexpected[sh] = kept
	}
	t.nUnex -= len(removed)
	return removed
}

// takeAllUnexpected empties the unexpected queues and returns the
// messages, claimed ones included.
func (t *matchTable) takeAllUnexpected() []*unexMsg {
	all := make([]*unexMsg, 0, t.nUnex)
	for sh := range t.unexpected {
		all = append(all, t.unexpected[sh]...)
		t.unexpected[sh] = nil
	}
	t.nUnex, t.nClaimed = 0, 0
	return all
}
