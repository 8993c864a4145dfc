// Package obs is qymera's observability layer: span tracing for
// individual jobs and a unified registry of named counters and
// log-bucketed latency histograms (registry.go). It is deliberately
// dependency-free (stdlib only) so every other internal package can
// import it.
//
// The tracing side is built around two rules that keep it cheap enough
// to leave on in production:
//
//   - everything is nil-safe: a nil *Trace or nil *Span no-ops on every
//     method, so call sites never branch on "is tracing enabled" — the
//     disabled path costs one nil check per call;
//   - the span tree is structural, not temporal, on the hot path:
//     per-operator work is accumulated into counters by the executor
//     (timing a sampled subset of batches) and attached to spans once
//     per statement, so tracing takes no lock per batch.
//
// A Trace travels on a context.Context (WithSpan / SpanFromContext),
// riding the plumbing that already carries cancellation through the
// service → sim → sqlengine stack.
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Sampling rates for the two tracing modes. Full tracing times every
// batch; sampled tracing times one batch in SampleEvery, which keeps
// a traced statement within noise of an untraced one.
const (
	SampleFull    = 1
	SampleDefault = 8
)

// Trace is one job's span tree. All mutating methods are safe for
// concurrent use; the hot path is expected to mutate atomic counters
// owned by the executor and only attach them to spans at statement
// boundaries.
type Trace struct {
	mu          sync.Mutex
	root        *Span
	start       time.Time
	sampleEvery int
}

// NewTrace starts a trace rooted at a span with the given name.
// sampleEvery <= 0 uses SampleDefault; SampleFull (1) times every
// batch.
func NewTrace(name string, sampleEvery int) *Trace {
	if sampleEvery <= 0 {
		sampleEvery = SampleDefault
	}
	t := &Trace{start: timeNow(), sampleEvery: sampleEvery}
	t.root = &Span{tr: t, name: name, start: t.start}
	return t
}

// timeNow is stubbed in tests for deterministic durations.
var timeNow = time.Now

// Root returns the trace's root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SampleEvery reports the batch-sampling stride (0 for a nil trace).
func (t *Trace) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// SampleEvery reports the batch-sampling stride of the span's trace
// (0 for a nil span).
func (s *Span) SampleEvery() int {
	if s == nil {
		return 0
	}
	return s.tr.sampleEvery
}

// Span is one timed phase of a job. Spans form a tree under the
// trace's root; counters carry phase-specific totals (rows, bytes,
// cache hits, sampled nanoseconds, ...).
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time // zero while the span is open
	counters map[string]int64
	children []*Span
}

// Child opens a new child span. Nil-safe: a nil receiver returns nil,
// so an untraced call chain stays allocation-free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: timeNow()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// CompleteChild records an already-measured child span (used when the
// caller timed the work itself, e.g. HTTP decode before the trace
// existed).
func (s *Span) CompleteChild(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: start, end: start.Add(d)}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End closes the span. Ending an ended span keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = timeNow()
	}
	s.tr.mu.Unlock()
}

// Add accumulates a named counter on the span.
func (s *Span) Add(counter string, n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[counter] += n
	s.tr.mu.Unlock()
}

// SetDuration overrides the span's measured wall time (used for
// operator spans, whose "duration" is sampled iterator time rather
// than wall clock).
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.end = s.start.Add(d)
	s.tr.mu.Unlock()
}

// Duration reports the span's wall time so far (to now while open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.durationLocked()
}

func (s *Span) durationLocked() time.Duration {
	end := s.end
	if end.IsZero() {
		end = timeNow()
	}
	return end.Sub(s.start)
}

// SpanJSON is one span on the wire: offsets are microseconds relative
// to the trace start, so a snapshot is stable under serialization and
// directly convertible to Chrome trace_event timestamps.
type SpanJSON struct {
	Name       string           `json:"name"`
	StartUs    int64            `json:"start_us"`
	DurationUs int64            `json:"dur_us"`
	Unfinished bool             `json:"unfinished,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []SpanJSON       `json:"children,omitempty"`
}

// Snapshot deep-copies the span tree. Safe to call while the job is
// still running (open spans report duration-to-now and Unfinished).
func (t *Trace) Snapshot() SpanJSON {
	if t == nil {
		return SpanJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.snapshotLocked(t.start)
}

func (s *Span) snapshotLocked(traceStart time.Time) SpanJSON {
	out := SpanJSON{
		Name:       s.name,
		StartUs:    s.start.Sub(traceStart).Microseconds(),
		DurationUs: s.durationLocked().Microseconds(),
		Unfinished: s.end.IsZero(),
	}
	if len(s.counters) > 0 {
		out.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			out.Counters[k] = v
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshotLocked(traceStart))
	}
	return out
}

// Shape renders the tree's structure ("job(queue,run(translate,...))")
// ignoring timings and counters — the deterministic part of a trace,
// used by tests to assert worker-count independence.
func (sp SpanJSON) Shape() string {
	out := sp.Name
	if len(sp.Children) == 0 {
		return out
	}
	parts := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		parts[i] = c.Shape()
	}
	return out + "(" + join(parts) + ")"
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// Walk visits every span in the snapshot depth-first.
func (sp SpanJSON) Walk(fn func(SpanJSON)) {
	fn(sp)
	for _, c := range sp.Children {
		c.Walk(fn)
	}
}

// CounterKeys returns the span's counter names, sorted (test helper).
func (sp SpanJSON) CounterKeys() []string {
	keys := make([]string, 0, len(sp.Counters))
	for k := range sp.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ctxKey carries the active span on a context.
type ctxKey struct{}

// WithSpan returns a context carrying sp as the active tracing span.
// A nil span returns ctx unchanged, so disabled tracing adds nothing
// to the context chain.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when the context is
// untraced. This is the single branch the disabled path pays.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
