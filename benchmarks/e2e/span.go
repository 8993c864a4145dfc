package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// and are clipped to the parent). Spans are addressed by ID, which is
// their index.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfMillisByName groups span self times by span name, in
// milliseconds.
func selfMillisByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], float64(ns)/1e6)
	}
	return out
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns since the traced pass began", spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
