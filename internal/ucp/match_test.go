package ucp

import (
	"testing"
)

// The match table must preserve the orderings the flat slices gave for
// free: earliest-posted receive wins a message, AnySource receives see
// globally-earliest arrivals, and per-sender arrival order is never
// reordered. Ranks 1 and 17 share a shard (17 & 15 == 1), so the tests
// mix them to exercise intra-shard collisions alongside cross-shard
// ordering.

func postReq(t *matchTable, from int, tag Tag) *Request {
	r := &Request{from: from, tag: tag, mask: ^Tag(0)}
	t.addPosted(r)
	return r
}

func arrive(t *matchTable, from int, tag Tag, id uint64) *unexMsg {
	m := newUnex(inbound{from: from, tag: tag, id: id})
	t.addUnexpected(m)
	return m
}

func TestMatchPostedPrefersEarliestAcrossAnySource(t *testing.T) {
	var tab matchTable
	any1 := postReq(&tab, -1, 7)
	spec := postReq(&tab, 3, 7)
	any2 := postReq(&tab, -1, 7)

	if got := tab.matchPosted(3, 7); got != any1 {
		t.Fatalf("first match should be the earliest-posted AnySource receive")
	}
	if got := tab.matchPosted(3, 7); got != spec {
		t.Fatalf("second match should be the source-specific receive posted before the later AnySource one")
	}
	if got := tab.matchPosted(3, 7); got != any2 {
		t.Fatalf("third match should be the remaining AnySource receive")
	}
	if tab.lenPosted() != 0 {
		t.Fatalf("posted count = %d after draining, want 0", tab.lenPosted())
	}
}

func TestMatchPostedSpecificBeforeLaterAny(t *testing.T) {
	var tab matchTable
	spec := postReq(&tab, 17, 9)
	postReq(&tab, -1, 9)
	if got := tab.matchPosted(17, 9); got != spec {
		t.Fatalf("earlier source-specific receive must beat the later AnySource receive")
	}
	if tab.lenPosted() != 1 {
		t.Fatalf("posted count = %d, want 1", tab.lenPosted())
	}
}

func TestMatchUnexpectedAnySourceGlobalArrivalOrder(t *testing.T) {
	var tab matchTable
	// Arrivals from ranks spread across shards, including a 1/17 shard
	// collision, deliberately not in rank order.
	first := arrive(&tab, 17, 5, 1)
	arrive(&tab, 1, 5, 2)
	arrive(&tab, 4, 5, 3)
	arrive(&tab, 17, 5, 4)

	req := &Request{from: -1, tag: 5, mask: ^Tag(0)}
	if got := tab.matchUnexpected(req); got != first {
		t.Fatalf("AnySource receive matched id=%d, want the globally earliest arrival (id=1)", got.id)
	}
	// Next earliest is from rank 1, which shares shard with remaining
	// rank-17 entries.
	if got := tab.matchUnexpected(req); got == nil || got.id != 2 {
		t.Fatalf("second AnySource match = %+v, want id=2", got)
	}
	if got := tab.matchUnexpected(req); got == nil || got.id != 3 {
		t.Fatalf("third AnySource match = %+v, want id=3", got)
	}
	if tab.lenUnexpected() != 1 {
		t.Fatalf("unexpected count = %d, want 1", tab.lenUnexpected())
	}
}

func TestMatchUnexpectedSpecificSourceSkipsShardNeighbors(t *testing.T) {
	var tab matchTable
	arrive(&tab, 1, 5, 1) // same shard as rank 17
	m17 := arrive(&tab, 17, 5, 2)
	req := &Request{from: 17, tag: 5, mask: ^Tag(0)}
	if got := tab.matchUnexpected(req); got != m17 {
		t.Fatalf("source-specific receive matched the wrong shard neighbor")
	}
	if tab.lenUnexpected() != 1 {
		t.Fatalf("rank-1 entry should remain queued")
	}
}

func TestMatchTableMaskedTags(t *testing.T) {
	var tab matchTable
	arrive(&tab, 2, 0x1234, 1)
	req := &Request{from: -1, tag: 0x0034, mask: 0x00FF}
	if got := tab.probeEarliest(req); got == nil || got.id != 1 {
		t.Fatalf("masked probe missed the buffered message")
	}
	// probeEarliest must not consume.
	if tab.lenUnexpected() != 1 {
		t.Fatalf("probe consumed the message")
	}
	if !tab.removeUnexpected(tab.probeEarliest(req)) {
		t.Fatalf("claim removal failed")
	}
	if tab.removeUnexpected(newUnex(inbound{from: 2})) {
		t.Fatalf("removing an unqueued message should report false")
	}
}

func TestMatchTableFilterAndTake(t *testing.T) {
	var tab matchTable
	for r := 0; r < 40; r++ {
		postReq(&tab, r%5, Tag(r))
		arrive(&tab, r%5, Tag(r), uint64(r))
	}
	postReq(&tab, -1, 99)

	removed := tab.filterPosted(func(r *Request) bool { return r.from != 2 })
	if len(removed) != 8 {
		t.Fatalf("filterPosted removed %d, want 8", len(removed))
	}
	if tab.lenPosted() != 33 {
		t.Fatalf("posted count = %d, want 33", tab.lenPosted())
	}
	stale := tab.filterUnexpected(func(m *unexMsg) bool { return m.id%2 == 0 })
	if len(stale) != 20 {
		t.Fatalf("filterUnexpected removed %d, want 20", len(stale))
	}
	if got := len(tab.takeAllPosted()); got != 33 {
		t.Fatalf("takeAllPosted returned %d, want 33", got)
	}
	if got := len(tab.takeAllUnexpected()); got != 20 {
		t.Fatalf("takeAllUnexpected returned %d, want 20", got)
	}
	if tab.lenPosted() != 0 || tab.lenUnexpected() != 0 {
		t.Fatalf("table not empty after takeAll: posted=%d unexpected=%d", tab.lenPosted(), tab.lenUnexpected())
	}
	count := 0
	tab.forEachUnexpected(func(*unexMsg) { count++ })
	if count != 0 {
		t.Fatalf("forEachUnexpected visited %d entries on an empty table", count)
	}
}

func TestMatchTableRemovePosted(t *testing.T) {
	var tab matchTable
	spec := postReq(&tab, 6, 1)
	any := postReq(&tab, -1, 1)
	if !tab.removePosted(spec) || !tab.removePosted(any) {
		t.Fatalf("removePosted failed on queued receives")
	}
	if tab.removePosted(spec) {
		t.Fatalf("removePosted should report false on an already-removed receive")
	}
	if tab.lenPosted() != 0 {
		t.Fatalf("posted count = %d, want 0", tab.lenPosted())
	}
}

func TestDefaultPullStripesFor(t *testing.T) {
	if got, want := DefaultPullStripesFor(0), DefaultPullStripes(); got != want {
		t.Fatalf("unknown placement: got %d, want DefaultPullStripes()=%d", got, want)
	}
	// With more co-located ranks than cores every pull must degrade to a
	// single sequential Get.
	if got := DefaultPullStripesFor(1 << 20); got != 1 {
		t.Fatalf("oversubscribed node: got %d stripes, want 1", got)
	}
	// One rank on the node may use up to the in-process cap.
	if got := DefaultPullStripesFor(1); got < 1 || got > maxDefaultPullStripes {
		t.Fatalf("single rank: got %d stripes, want within [1,%d]", got, maxDefaultPullStripes)
	}
	cfg := Config{RanksPerNode: 1 << 20}.withDefaults()
	if cfg.PullStripes != 1 {
		t.Fatalf("withDefaults ignored RanksPerNode: PullStripes=%d", cfg.PullStripes)
	}
}
