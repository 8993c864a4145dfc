package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envelope heads every result file with where and how it was measured.
type envelope struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Time       string  `json:"time"`
}

// metricJSON is one metric of one workload. Values holds one entry per
// -repeat set; Value is their median.
type metricJSON struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"` // end_to_end or per_layer
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Values  []float64 `json:"values"`
}

// workloadJSON is one workload's part of a result file.
type workloadJSON struct {
	Name        string       `json:"name"`
	ListJobs    int          `json:"list_jobs"`
	Clients     int          `json:"clients"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	FailedShare float64      `json:"failed_share"`
	TimedPassS  float64      `json:"timed_pass_s"`
	Notes       []string     `json:"notes,omitempty"`
	Metrics     []metricJSON `json:"metrics"`
}

type report struct {
	Envelope  envelope        `json:"envelope"`
	Workloads []*workloadJSON `json:"workloads"`
	// last is each workload's most recent run, for the contract line.
	last map[string]runResult
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		Envelope: envelope{
			GitSHA:     gitSHA(),
			GoVersion:  runtime.Version(),
			CPUModel:   cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed:       seed,
			Seconds:    seconds,
			Time:       time.Now().UTC().Format(time.RFC3339),
		},
		last: map[string]runResult{},
	}
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git history
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// add folds one run into the report: counts add up across repeat sets,
// metric values are kept per set.
func (r *report) add(run runResult) {
	r.last[run.w.name] = run
	var wj *workloadJSON
	for _, have := range r.Workloads {
		if have.Name == run.w.name {
			wj = have
		}
	}
	if wj == nil {
		wj = &workloadJSON{Name: run.w.name, ListJobs: run.w.jobs, Clients: run.w.clients}
		r.Workloads = append(r.Workloads, wj)
	}
	wj.Attempted += run.attempted
	wj.Failed += run.failed
	wj.FailedShare = float64(wj.Failed) / float64(max(wj.Attempted, 1))
	wj.TimedPassS = run.passS
	wj.Notes = append(wj.Notes, run.notes...)
	for _, kl := range []struct {
		kind string
		list []metricDef
	}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
		for _, d := range kl.list {
			v, ok := run.metrics[d.Name]
			if !ok {
				continue
			}
			var mj *metricJSON
			for i := range wj.Metrics {
				if wj.Metrics[i].Name == d.Name {
					mj = &wj.Metrics[i]
				}
			}
			if mj == nil {
				wj.Metrics = append(wj.Metrics, metricJSON{Name: d.Name, Kind: kl.kind, Unit: d.Unit})
				mj = &wj.Metrics[len(wj.Metrics)-1]
			}
			mj.Values = append(mj.Values, v.Value)
			mj.Value = median(mj.Values)
			mj.Samples = v.Samples
		}
	}
}

// print writes the table: every metric by name, with its unit and
// sample count, one block per workload.
func (r *report) print(w io.Writer) {
	e := r.Envelope
	fmt.Fprintf(w, "e2e benchmark  git=%s  %s  cpu=%q  nproc=%d  GOMAXPROCS=%d  seed=%d  seconds=%g\n",
		e.GitSHA, e.GoVersion, e.CPUModel, e.NProc, e.GOMAXPROCS, e.Seed, e.Seconds)
	for _, wj := range r.Workloads {
		fmt.Fprintf(w, "\n%s  (job list %d × %d client(s); attempted %d, failed %d, failed_share %g)\n",
			wj.Name, wj.ListJobs, wj.Clients, wj.Attempted, wj.Failed, wj.FailedShare)
		for _, msg := range wj.Notes {
			fmt.Fprintf(w, "  NOTE %s\n", msg)
		}
		for _, m := range wj.Metrics {
			fmt.Fprintf(w, "  %-38s %16.6g %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Kind)
		}
	}
	fmt.Fprintln(w)
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printContractLines prints, per workload in run order, the one-line
// JSON object the driver reads (it runs one workload, so it reads the
// only line). It reports whether every job of every workload passed.
func (r *report) printContractLines(w io.Writer) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	allOK := true
	for _, wj := range r.Workloads {
		run := r.last[wj.Name]
		metrics := map[string]value{}
		for name, m := range run.metrics {
			unit, _ := unitOf(name)
			metrics[name] = value{m.Value, unit}
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{wj.Failed == 0 && wj.Attempted > 0, max(wj.Attempted, 1), wj.Failed, metrics})
		if err != nil {
			fatal(err) // a NaN metric: a harness bug
		}
		fmt.Fprintf(w, "%s\n", line)
		allOK = allOK && wj.Failed == 0 && wj.Attempted > 0
	}
	return allOK
}
