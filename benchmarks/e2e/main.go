// Command e2e is the repository's one end-to-end benchmark: a circuit
// goes in, its amplitudes come back, every answer is checked against
// the state-vector oracle, and a separate traced pass says which layer
// the time went to. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md beside this file defines them.
//
//	go run ./benchmarks/e2e                       # every workload, timed and traced
//	go run ./benchmarks/e2e -workload floor.ghz16,dense.qft12
//	go run ./benchmarks/e2e -compare a.json b.json
//
// The driver's form runs one pass of one workload and reads the last
// line of standard output:
//
//	go run ./benchmarks/e2e --workload dense.qft12 --seed 7 --seconds 15 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 20250611
	defaultSeconds = 15 // run_seconds in BENCHMARK.json
	// setupReps is how many times a timed run sets the workload up;
	// setup_s is the median, so one cold build or page-cache miss does
	// not decide it.
	setupReps = 3
	// outDir receives result.json and one trace-<workload>.json per
	// traced workload; benchmarks/e2e/.gitignore keeps it out of git.
	outDir = "benchmarks/e2e/out"
)

func main() {
	workloadFlag := flag.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := flag.Int64("seed", defaultSeed, "seed of the job order and every θ")
	seconds := flag.Float64("seconds", defaultSeconds, "how long each pass measures")
	trace := flag.Int("trace", -1, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	repeat := flag.Int("repeat", 1, "sets of runs, on seeds seed, seed+1, …; -compare reads their spread")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments, against BENCHMARK.json's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result.json files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected, err := selectWorkloads(*workloadFlag)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace in -1, 0, 1"))
	}
	// Everything the run writes stays under the working directory: the
	// engine spills to os.TempDir() and qymerad inherits the variable.
	tmp, err := filepath.Abs(filepath.Join(buildDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fatal(err)
	}
	os.Setenv("TMPDIR", tmp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := newReport(*seed, *seconds)
	dur := time.Duration(*seconds * float64(time.Second))
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			run := runWorkload(ctx, w, *seed+int64(r), dur, *trace, outDir)
			rep.add(run)
		}
	}
	rep.print(os.Stdout)
	if err := rep.write(filepath.Join(outDir, "result.json")); err != nil {
		fatal(err)
	}
	if !rep.printContractLines(os.Stdout) || ctx.Err() != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]*workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// runResult is one run of one workload.
type runResult struct {
	w         *workload
	attempted int
	failed    int
	notes     []string // errors, and warnings that fail nothing
	passS     float64  // wall time of the timed pass
	metrics   metricSet
}

func (r *runResult) fail(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if err != nil {
		r.notes = append(r.notes, err.Error())
	}
}

// runWorkload sets the workload up and runs the passes trace selects.
// A set-up that fails counts as one attempted, failed job, so the run
// still prints a result and exits non-zero.
func runWorkload(ctx context.Context, w *workload, seed int64, dur time.Duration, trace int, outDir string) runResult {
	run := runResult{w: w, metrics: metricSet{}}
	if trace != 1 {
		timedRun(ctx, seed, dur, &run)
	}
	if trace != 0 {
		tracedRun(ctx, seed, dur, outDir, &run)
		for _, d := range perLayer {
			if _, ok := run.metrics[d.Name]; !ok {
				run.metrics.set(d.Name, 0, 0) // does not apply to this workload
			}
		}
	}
	return run
}

// timedRun measures the end-to-end metrics with harness tracing off.
func timedRun(ctx context.Context, seed int64, dur time.Duration, run *runResult) {
	w := run.w
	var e *env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, w, seed); err != nil {
			run.fail(1, 1, err)
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	p := e.pass(ctx, w.warmJobs(), 0, dur)
	run.fail(p.attempted, p.failed, p.firstErr)
	run.passS = p.busy.Seconds()
	m := run.metrics
	m.setMedian("setup_s", setups)
	m.setMedian("job_p50_ms", p.latMs)
	m.set("jobs_per_s", float64(p.verified())/p.busy.Seconds(), p.verified())
	m.set("peak_bytes", float64(p.peak), p.verified())
}

// tracedRun measures the per-layer metrics: a short untraced pass for
// the counts that need one (allocation, plan-cache ratios, the service
// tier's own numbers), then the traced replay.
func tracedRun(ctx context.Context, seed int64, dur time.Duration, outDir string, run *runResult) {
	w := run.w
	e, err := setUp(ctx, w, seed)
	if err != nil {
		run.fail(1, 1, err)
		return
	}
	defer e.close()
	m := run.metrics
	from := w.warmJobs()

	if w.service {
		p := e.pass(ctx, from, 0, dur*35/100)
		run.fail(p.attempted, p.failed, p.firstErr)
		if n := p.verified(); n > 0 {
			reportTail(m, p.latMs)
			reportCache(m, p)
			m.setMedian("service.overhead_ms", p.overheadMs)
			m.set("service.overhead_share", median(p.overheadMs)/median(p.latMs), n)
			m.set("service.request_bytes", float64(p.reqBytes)/float64(p.attempted), p.attempted)
			m.set("service.response_bytes", float64(p.respBytes)/float64(p.attempted), p.attempted)
			m.set("service.log_records_per_job", float64(p.logRecords)/float64(n), n)
		}
		// From here on the jobs of client 0 run in this process, on the
		// server's defaults, so the service workload gets the same
		// layer breakdown as the others.
		e.close()
		e = &env{w: w, lists: e.lists[:1], backend: w.newBackend()}
		warm := e.pass(ctx, 0, from, 0)
		run.fail(0, warm.failed, warm.firstErr)
	}

	p := e.pass(ctx, from, 0, dur*15/100)
	run.fail(p.attempted, p.failed, p.firstErr)
	n := max(p.verified(), 1)
	m.set("sim.allocs_per_job", float64(p.mallocs)/float64(n), n)
	m.set("sim.alloc_bytes_per_job", float64(p.allocBytes)/float64(n), n)
	if !w.service {
		reportTail(m, p.latMs)
		reportCache(m, p)
	}

	t := newTracer()
	tr := tracedPass(ctx, t, w, e.lists[0], from, dur*35/100)
	yardsticks(ctx, w, e.lists[0], from, dur*15/100, &tr)
	run.fail(tr.attempted, tr.failed, tr.firstErr)
	reportLayers(m, t.spans, tr)
	if v := m["harness.trace_overhead"].Value; math.Abs(v) > 0.10 {
		run.notes = append(run.notes, fmt.Sprintf("harness.trace_overhead %+.3f is outside ±0.10: the layer times do not add up to the untraced job", v))
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, seed, t.spans); err != nil {
		run.fail(0, 1, err)
	}
}

// reportTail records the ungated views of a pass's latency tail: p95,
// and the highest percentile the sample count supports.
func reportTail(m metricSet, latMs []float64) {
	m.set("job_p95_ms", percentile(latMs, 95), len(latMs))
	tp := tailPercentile(len(latMs))
	m.set("job_tail_percentile", float64(tp), len(latMs))
	m.set("job_tail_ms", percentile(latMs, float64(tp)), len(latMs))
}

func reportCache(m metricSet, p passResult) {
	lookups := p.cache.Hits + p.cache.StructuralHits + p.cache.Misses
	if lookups == 0 {
		return // the workload runs without a plan cache
	}
	m.set("plancache.exact_hit_ratio", float64(p.cache.Hits)/float64(lookups), int(lookups))
	m.set("plancache.struct_hit_ratio", float64(p.cache.StructuralHits)/float64(lookups), int(lookups))
}

// reportLayers turns the traced pass into per-layer metrics: the
// median self time of each layer's span, the derived front-end split,
// the exact counts, and the yardsticks.
func reportLayers(m metricSet, spans []span, tr tracedResult) {
	self := selfMillisByName(spans)
	for span, name := range map[string]string{
		"core.translate":       "core.translate_ms",
		"core.rebind":          "core.rebind_ms",
		"sqlengine.setup_exec": "sqlengine.setup_exec_ms",
		"sqlengine.query":      "sqlengine.query_ms",
		"sqlengine.emit":       "sqlengine.emit_ms",
		"probe.parse_script":   "sqlengine.parse_ms",
		"circuitio.encode":     "circuitio.encode_ms",
		"circuitio.decode":     "circuitio.decode_ms",
	} {
		if xs := self[span]; len(xs) > 0 {
			m.setMedian(name, xs)
		}
	}
	// Open and Close are one metric: neither means anything alone.
	open, closed := self["sqlengine.open"], self["sqlengine.close"]
	if len(open) > 0 && len(open) == len(closed) {
		m.set("sqlengine.open_ms", median(open)+median(closed), len(open))
	}
	// Derived: planning is Explain minus parsing the same text, and
	// execution is the query minus Explain (parse + plan).
	explain, parseQ, query := median(self["probe.explain"]), median(self["probe.parse_query"]), median(self["sqlengine.query"])
	if n := len(self["probe.explain"]); n > 0 {
		m.set("sqlengine.plan_ms", explain-parseQ, n)
		m.set("sqlengine.exec_ms", query-explain, n)
	}

	if len(tr.statevecMs) > 0 {
		m.setMedian("sim.statevec_p50_ms", tr.statevecMs)
		m.setMedian("sim.sparse_p50_ms", tr.sparseMs)
		m.set("sql_over_statevec", median(tr.sqlMs)/median(tr.statevecMs), len(tr.statevecMs))
	}
	n := len(tr.counts)
	if n == 0 {
		return
	}
	mean := func(get func(jobCounts) int64) float64 {
		var sum int64
		for _, c := range tr.counts {
			sum += get(c)
		}
		return float64(sum) / float64(n)
	}
	m.set("core.sql_bytes", mean(func(c jobCounts) int64 { return int64(c.sqlBytes) }), n)
	m.set("core.statements", mean(func(c jobCounts) int64 { return int64(c.statements) }), n)
	for _, k := range []string{"chain_stages", "chain_elided", "fallbacks", "cache_hits", "compiles"} {
		m.set("sqlengine.kernel."+k, mean(func(c jobCounts) int64 { return c.kernel[k] }), n)
	}
	for _, k := range []string{"morsels_skipped", "encoded_rle", "encoded_dict", "encoded_sparse", "encoded_chunk_cols"} {
		m.set("sqlengine.storage."+k, mean(func(c jobCounts) int64 { return c.storage[k] }), n)
	}
	m.set("sqlengine.spilled_rows", mean(func(c jobCounts) int64 { return c.stats.SpilledRows }), n)
	m.set("sqlengine.spilled_bytes", mean(func(c jobCounts) int64 { return c.stats.SpilledBytes }), n)
	m.set("sqlengine.spill_files", mean(func(c jobCounts) int64 { return c.stats.SpillFiles }), n)

	m.set("harness.trace_overhead", median(tr.replayMs)/median(tr.refMs)-1, n)
}
