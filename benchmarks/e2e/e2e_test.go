package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"qymera/internal/circuitio"
	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(1..3) = %g, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct{ n, want int }{{39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},  // grandchild: counts against b only
		{ID: 5, Parent: -1, Name: "probe", Start: 200, End: 260},
	}
	want := []int64{50, 20, 20, 30, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfMillisByName(spans)
	if len(byName["job"]) != 1 || byName["job"][0] != 50e-6 {
		t.Errorf("selfMillisByName[job] = %v, want [5e-05]", byName["job"])
	}

	tr := newTracer()
	root := tr.begin("job", -1, 7)
	kid := tr.begin("kid", root, 7)
	tr.end(kid)
	tr.end(root)
	s := tr.spans
	if s[kid].Parent != root || s[kid].Job != 7 || s[root].Start > s[kid].Start || s[kid].End > s[root].End {
		t.Errorf("tracer recorded %+v", s)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	encode := func(lists [][]job) []byte {
		var buf bytes.Buffer
		for _, l := range lists {
			for _, j := range l {
				if err := circuitio.WriteJSON(&buf, j.circuit); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	for _, w := range workloads() {
		small := *w
		small.jobs = 24
		a, err := generate(&small, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(&small, 11)
		c, _ := generate(&small, 12)
		if len(a) != w.clients || len(a[0]) != small.jobs {
			t.Errorf("%s: %d lists of %d jobs, want %d of %d", w.name, len(a), len(a[0]), w.clients, small.jobs)
		}
		if !bytes.Equal(encode(a), encode(b)) {
			t.Errorf("%s: the same seed gave different jobs", w.name)
		}
		seeded := w.name == "sweep.hea10x4" || w.name == "service.mix"
		if seeded == bytes.Equal(encode(a), encode(c)) {
			t.Errorf("%s: another seed changing the jobs = %v, want %v", w.name, !seeded, seeded)
		}
		for _, j := range a[0] {
			if !verify(j.oracle, j.oracle) {
				t.Errorf("%s: oracle state of %s is not a unit vector", w.name, j.circuit.Name())
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONAgrees holds the harness and BENCHMARK.json together:
// the same workloads, the same metrics with the same units, and names
// the driver's contract accepts.
func TestBenchmarkJSONAgrees(t *testing.T) {
	var bench benchmarkJSON
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bench.Command, " ") != "go run ./benchmarks/e2e" || len(bench.Paths) != 1 || bench.Paths[0] != "benchmarks" {
		t.Errorf("command %q, paths %q", bench.Command, bench.Paths)
	}
	if bench.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bench.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	ws := workloads()
	if len(bench.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bench.Workloads), len(ws))
	}
	for i, w := range ws {
		got := bench.Workloads[i]
		checkName("workload", got.Name)
		if got.Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, got.Name, w.name)
		}
		if got.Why == "" || len([]rune(got.Why)) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", got.Name, len([]rune(got.Why)))
		}
	}

	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bench.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := bench.EndToEnd[i]
		checkName("metric", got.Name)
		if got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, got.Name, got.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(got.Unit) || (got.Better != "lower" && got.Better != "higher") || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %g", got.Name, got.Unit, got.Better, got.Bound)
		}
		hasSetup = hasSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bench.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bench.PerLayer[i]
		checkName("metric", got.Name)
		if got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, got.Name, got.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(got.Unit) || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", got.Name, got.Unit, got.Better)
		}
	}
}

// TestEmittedMetricsAreDeclared runs both passes of a tiny in-process
// workload: metricSet.set panics on a name metrics.go does not carry,
// every declared metric must come out, and the replay must agree with
// sim.SQL.Run and the oracle.
func TestEmittedMetricsAreDeclared(t *testing.T) {
	tiny := &workload{name: "tiny.ghz3", jobs: 20, clients: 1,
		newBackend: func() *sim.SQL { return &sim.SQL{Cache: sim.NewPlanCache(8)} }}
	tiny.fixed, tiny.next = single(func() *quantum.Circuit { return circuits.GHZ(3) })
	out := t.TempDir()
	run := runWorkload(context.Background(), tiny, 1, 20*time.Millisecond, -1, out)
	if run.failed != 0 || run.attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", run.attempted, run.failed, run.notes)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if _, ok := run.metrics[d.Name]; !ok {
				t.Errorf("metric %s was not reported", d.Name)
			}
		}
	}
	for _, name := range []string{"job_p50_ms", "jobs_per_s", "peak_bytes", "setup_s", "sqlengine.query_ms", "sim.statevec_p50_ms", "plancache.exact_hit_ratio"} {
		if run.metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, run.metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "trace-tiny.ghz3.json")); err != nil {
		t.Error(err)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", steady, steady, true, "ok"},
		{"5% slower within 10%", steady, []float64{105, 105, 105}, true, "ok"},
		{"20% slower", steady, []float64{120, 121, 119}, true, "worse"},
		{"20% faster", steady, []float64{80, 81, 79}, true, "ok"},
		{"throughput down 20%", steady, []float64{80, 81, 79}, false, "worse"},
		{"throughput up 20%", steady, []float64{120, 121, 119}, false, "ok"},
		{"noisy side", steady, []float64{80, 100, 120, 140}, true, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
