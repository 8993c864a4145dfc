package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Root() != nil {
		t.Fatal("nil trace root should be nil")
	}
	if tr.SampleEvery() != 0 {
		t.Fatal("nil trace sample stride should be 0")
	}
	var sp *Span
	if sp.Child("x") != nil {
		t.Fatal("nil span child should be nil")
	}
	sp.End()
	sp.Add("rows", 1)
	sp.SetDuration(time.Second)
	if sp.Duration() != 0 {
		t.Fatal("nil span duration should be 0")
	}
	snap := tr.Snapshot()
	if snap.Name != "" || len(snap.Children) != 0 {
		t.Fatal("nil trace snapshot should be empty")
	}
	ctx := WithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span must not be stored on the context")
	}
	if SpanFromContext(nil) != nil {
		t.Fatal("nil context should yield nil span")
	}
}

func TestSpanTreeSnapshot(t *testing.T) {
	tr := NewTrace("job", 0)
	if tr.SampleEvery() != SampleDefault {
		t.Fatalf("default stride = %d, want %d", tr.SampleEvery(), SampleDefault)
	}
	run := tr.Root().Child("run")
	q := run.Child("query")
	q.Add("rows", 100)
	q.Add("rows", 28)
	q.End()
	run.End()
	tr.Root().End()

	snap := tr.Snapshot()
	if got, want := snap.Shape(), "job(run(query))"; got != want {
		t.Fatalf("shape = %q, want %q", got, want)
	}
	if snap.Unfinished {
		t.Fatal("ended root reported unfinished")
	}
	qs := snap.Children[0].Children[0]
	if qs.Counters["rows"] != 128 {
		t.Fatalf("rows counter = %d, want 128", qs.Counters["rows"])
	}
	if got := qs.CounterKeys(); len(got) != 1 || got[0] != "rows" {
		t.Fatalf("counter keys = %v", got)
	}
}

func TestCompleteChildAndSetDuration(t *testing.T) {
	tr := NewTrace("job", SampleFull)
	start := time.Now().Add(-time.Millisecond)
	tr.Root().CompleteChild("decode", start, 500*time.Microsecond)
	op := tr.Root().Child("op")
	op.SetDuration(2 * time.Millisecond)
	snap := tr.Snapshot()
	if n := len(snap.Children); n != 2 {
		t.Fatalf("children = %d, want 2", n)
	}
	if d := snap.Children[0].DurationUs; d != 500 {
		t.Fatalf("decode dur = %dus, want 500", d)
	}
	if d := snap.Children[1].DurationUs; d != 2000 {
		t.Fatalf("op dur = %dus, want 2000", d)
	}
}

// TestConcurrentTrace hammers one trace from many goroutines; run
// under -race this is the "traces survive concurrent collection"
// satellite check at the package level.
func TestConcurrentTrace(t *testing.T) {
	tr := NewTrace("job", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Root().Child("work")
				sp.Add("rows", 1)
				sp.End()
				_ = tr.Snapshot() // concurrent collection
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Children) != 8*200 {
		t.Fatalf("children = %d, want %d", len(snap.Children), 8*200)
	}
	var rows int64
	snap.Walk(func(sp SpanJSON) { rows += sp.Counters["rows"] })
	if rows != 8*200 {
		t.Fatalf("rows = %d, want %d", rows, 8*200)
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := NewTrace("job", 0)
	ctx := WithSpan(context.Background(), tr.Root())
	if got := SpanFromContext(ctx); got != tr.Root() {
		t.Fatal("span did not round-trip through the context")
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Add("b", 1)
	c := r.Counters()
	if c["a"] != 5 || c["b"] != 1 {
		t.Fatalf("counters = %v", c)
	}

	h := r.Histogram("lat")
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// p50 must sit in the ~1ms bucket, p99 in the ~100ms bucket; log₂
	// buckets are a factor-of-two estimate, so assert within 2x.
	if s.P50Seconds < 0.0005 || s.P50Seconds > 0.002 {
		t.Fatalf("p50 = %v, want ~1ms", s.P50Seconds)
	}
	if s.P99Seconds < 0.05 || s.P99Seconds > 0.2 {
		t.Fatalf("p99 = %v, want ~100ms", s.P99Seconds)
	}
	if s.P95Seconds < s.P50Seconds || s.P99Seconds < s.P95Seconds {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.MaxSeconds < 0.09 || s.MaxSeconds > 0.11 {
		t.Fatalf("max = %v, want ~0.1", s.MaxSeconds)
	}
	if s.AvgSeconds <= 0 {
		t.Fatalf("avg = %v", s.AvgSeconds)
	}
	if got := r.HistogramNames(); len(got) != 1 || got[0] != "lat" {
		t.Fatalf("histogram names = %v", got)
	}
	hs := r.Histograms()
	if hs["lat"].Count != 100 {
		t.Fatalf("snapshot count = %d", hs["lat"].Count)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99Seconds != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(-time.Second) // clamps to zero
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 2 || s.P50Seconds != 0 {
		t.Fatalf("zero-duration snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

// TestChromeTraceFields validates the export against the trace_event
// required fields (the satellite acceptance check).
func TestChromeTraceFields(t *testing.T) {
	tr := NewTrace("job", 0)
	run := tr.Root().Child("run")
	run.Add("rows", 42)
	run.End()
	tr.Root().End()

	data, err := ChromeTrace(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing required field %q: %v", field, ev)
			}
		}
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		if ph != "X" {
			t.Fatalf("ph = %q, want X", ph)
		}
	}
}

// TestHistogramQuantilesWithinOneBucket: quantiles that land in the
// same log₂ bucket still order by rank.
func TestHistogramQuantilesWithinOneBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		// Evenly spread over [1.05 ms, 2.0 ms): one bucket.
		h.Observe(1050*time.Microsecond + time.Duration(i)*9500*time.Nanosecond)
	}
	s := h.Snapshot()
	if !(s.P50Seconds < s.P95Seconds && s.P95Seconds < s.P99Seconds) {
		t.Fatalf("p50 %v, p95 %v, p99 %v: want strictly increasing", s.P50Seconds, s.P95Seconds, s.P99Seconds)
	}
	if s.P99Seconds > s.MaxSeconds || s.P50Seconds < 0.00105 {
		t.Fatalf("quantiles %+v outside the observed range", s)
	}
}
