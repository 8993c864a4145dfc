package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the unified metrics surface: named monotonic counters
// and log-bucketed latency histograms. One Registry backs a server's
// /metrics endpoint; names are dot-separated ("backend.sql",
// "tenant.acme", "phase.translate").
//
// Counter and histogram handles are created on first use and live for
// the registry's lifetime, so hot paths can hold a *Histogram and
// observe lock-free (the registry lock guards only the name maps).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*atomic.Int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero.
func (r *Registry) Counter(name string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &atomic.Int64{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter.
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// Histogram returns the named histogram, creating it empty.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe records one duration in the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Histogram(name).Observe(d)
}

// Counters snapshots every counter.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// Histograms snapshots every histogram.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	hs := make([]*Histogram, 0, len(r.hists))
	for name, h := range r.hists {
		names = append(names, name)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(names))
	for i, name := range names {
		out[name] = hs[i].Snapshot()
	}
	return out
}

// HistogramNames lists registered histograms, sorted (test helper).
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// histBuckets is the number of power-of-two latency buckets. Bucket i
// holds observations with bits.Len64(nanos) == i, i.e. durations in
// [2^(i-1), 2^i) ns; 63 buckets cover everything an int64 can hold
// (~292 years), so no observation is ever dropped.
const histBuckets = 64

// Histogram is a lock-free log₂-bucketed latency histogram. Observe
// is a handful of atomic adds; quantiles are estimated from bucket
// geometry (each bucket spans a factor of two, so the estimate is
// within ~50% of the true value — the right trade for a histogram
// that is always on).
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// bucketOf is bits.Len64 without the import: the index of the highest
// set bit plus one, and 0 for 0ns.
func bucketOf(ns int64) int {
	i := 0
	for v := uint64(ns); v != 0; v >>= 1 {
		i++
	}
	return i
}

// HistogramSnapshot is a histogram's point-in-time summary on the
// wire. Quantiles interpolate by rank within their bucket, clamped to
// the observed maximum.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	AvgSeconds float64 `json:"avg_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls may
// land between field reads; the snapshot is internally consistent
// enough for monitoring (counts never decrease).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	out := HistogramSnapshot{Count: h.count.Load(), MaxSeconds: float64(h.maxNs.Load()) / 1e9}
	if total == 0 {
		return out
	}
	out.AvgSeconds = float64(h.sumNs.Load()) / float64(total) / 1e9
	out.P50Seconds = quantile(&counts, total, 0.50, out.MaxSeconds)
	out.P95Seconds = quantile(&counts, total, 0.95, out.MaxSeconds)
	out.P99Seconds = quantile(&counts, total, 0.99, out.MaxSeconds)
	return out
}

// quantile finds the bucket holding the q-th observation (nearest
// rank) and interpolates linearly by rank across the bucket's range
// [2^(i-1), 2^i) ns, whose top is clamped to the observed maximum: the
// k-th of c observations in a bucket reads lo + (k/c)·(hi − lo). So
// quantiles that land in one bucket still differ, and none exceeds the
// maximum.
func quantile(counts *[histBuckets]int64, total int64, q, maxSeconds float64) float64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Exp2(float64(i-1)) / 1e9 // bucket i holds [2^(i-1), 2^i) ns
			hi := 2 * lo
			if maxSeconds > 0 && hi > maxSeconds {
				hi = max(maxSeconds, lo)
			}
			return lo + float64(rank-(cum-c))/float64(c)*(hi-lo)
		}
	}
	return maxSeconds
}
