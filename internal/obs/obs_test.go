package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Add(4)
	if got := r.Counter("a.b").Load(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.GaugeFunc("a.depth", func() int64 { return 42 })
	s := r.Snapshot()
	if s.Counters["a.b"] != 7 || s.Gauges["a.depth"] != 42 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, 1 << 40, math.MaxInt64} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	var n int64
	for _, b := range s.Buckets {
		n += b.N
	}
	if n != 8 {
		t.Fatalf("bucket total = %d, want 8", n)
	}
	// Power-of-two edges: v=3 lands in (2,4], i.e. Le=4.
	if got := bucketUpper(bucketOf(3)); got != 4 {
		t.Fatalf("bucket edge for 3 = %d, want 4", got)
	}
	if bucketOf(math.MaxInt64) != NumBuckets-1 {
		t.Fatalf("MaxInt64 bucket = %d", bucketOf(math.MaxInt64))
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	// True median 500; bucket estimate must bound it within a factor of 2.
	if p50 < 500 || p50 > 1024 {
		t.Fatalf("p50 = %d", p50)
	}
	if h.Quantile(0) <= 0 || h.Quantile(1) < p50 {
		t.Fatalf("quantile ordering broken: q0=%d q1=%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(Event{Nanos: int64(i), Kind: EvSend})
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("len = %d, want 16", len(evs))
	}
	if r.Dropped() != 24 {
		t.Fatalf("dropped = %d, want 24", r.Dropped())
	}
	for i, ev := range evs {
		if ev.Nanos != int64(24+i) {
			t.Fatalf("event %d has nanos %d, want %d (oldest-first)", i, ev.Nanos, 24+i)
		}
	}
}

func TestNilRingAndNilObserver(t *testing.T) {
	var r *Ring
	r.Record(Event{}) // must not panic
	if r.Len() != 0 || r.Events() != nil || r.Dropped() != 0 {
		t.Fatal("nil ring should be inert")
	}
	var o *Observer
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestObserverJSONRoundTrip(t *testing.T) {
	o := New(32)
	o.Registry.Counter("ucp.r0.eager_sends").Add(5)
	o.Registry.Histogram("ucp.r0.msg_complete_ns").Observe(1500)
	o.Trace.Record(Event{Nanos: 1, Kind: EvPost, Rank: 0, Peer: 1})
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics Snapshot `json:"metrics"`
		Trace   []Event  `json:"trace"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Metrics.Counters["ucp.r0.eager_sends"] != 5 {
		t.Fatalf("counter lost in round trip: %+v", doc.Metrics)
	}
	if len(doc.Trace) != 1 || doc.Trace[0].Kind != EvPost {
		t.Fatalf("trace lost in round trip: %+v", doc.Trace)
	}
}

// TestControlRing: Ctl records into the process-wide ring with no
// Observer, as a "control" event whose note survives a JSON round trip;
// a message event's JSON carries no note at all.
func TestControlRing(t *testing.T) {
	start := time.Now().UnixNano()
	Ctl(3, 1, "conn drop", 2)
	var got []Event
	for _, ev := range Control.Events() {
		if ev.Nanos >= start && ev.Rank == 3 && ev.Note == "conn drop" {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || got[0].Kind != EvControl || got[0].Peer != 1 || got[0].Arg != 2 {
		t.Fatalf("control events = %+v, want one conn drop of rank 3 toward 1, arg 2", got)
	}
	raw, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil || back != got[0] {
		t.Fatalf("round trip of %s = %+v, %v", raw, back, err)
	}
	if raw, _ := json.Marshal(Event{Kind: EvSend}); bytes.Contains(raw, []byte("note")) {
		t.Fatalf("message event JSON holds a note: %s", raw)
	}
}

// TestHotPathAllocationFree pins the zero-allocation claim for every
// hot-path operation: counter adds, histogram observations and trace
// records.
func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	var h Histogram
	r := NewRing(64)
	if avg := testing.AllocsPerRun(1000, func() { c.Add(1) }); avg != 0 {
		t.Fatalf("Counter.Add allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); avg != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { r.Record(Event{Nanos: 1}) }); avg != 0 {
		t.Fatalf("Ring.Record allocates %.1f/op", avg)
	}
}

func TestConcurrentUse(t *testing.T) {
	o := New(256)
	c := o.Registry.Counter("x")
	h := o.Registry.Histogram("y")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(int64(i))
				o.Trace.Record(Event{Nanos: int64(g*1000 + i)})
			}
		}(g)
	}
	// Concurrent snapshots must not race with writers.
	for i := 0; i < 10; i++ {
		_ = o.Registry.Snapshot()
		_ = o.Trace.Events()
	}
	wg.Wait()
	if c.Load() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Load(), h.Count())
	}
	if o.Trace.Len() != 256 {
		t.Fatalf("ring len = %d", o.Trace.Len())
	}
}
