package core

// Whole-circuit statement fusion for the MaterializedChain mode. The
// plain Statements() sequence materializes every intermediate quantum
// state as its own table — one CREATE TABLE ... AS SELECT per stage.
// FusedStatements collapses each maximal run of consecutive chained
// stages (stage k reading exactly the table stage k-1 produced) into a
// single CTAS whose interior stages are WITH CTEs:
//
//	CREATE TABLE T3 AS WITH
//	  T1 AS (<stage 1 over T0>),
//	  T2 AS (<stage 2 over T1>)
//	<stage 3 over T2>
//
// Only the run's final state becomes a table; the interior state
// tables are never created. The embedded engine executes the CTE chain
// as one multi-stage fused pass with the intermediate amplitudes
// double-buffered in memory (sqlengine kernel_chain.go); any other
// engine still runs the statement correctly, CTE by CTE. The per-stage
// SQL text is unchanged, so amplitudes are bitwise identical to the
// unfused statement sequence either way.

// chainRuns splits the translation's steps into maximal runs of
// consecutive chained stages: within a run, each step's Source is the
// previous step's Table. Steps without statement text (SingleQuery
// mode) are never grouped.
func chainRuns(steps []Step) [][]Step {
	var runs [][]Step
	for i := 0; i < len(steps); {
		j := i
		for j+1 < len(steps) &&
			steps[j].SQL != "" && steps[j+1].SQL != "" &&
			steps[j+1].Source == steps[j].Table {
			j++
		}
		runs = append(runs, steps[i:j+1])
		i = j + 1
	}
	return runs
}

// fusedRunSQL renders one run of chained stages as a single CTAS.
func fusedRunSQL(run []Step) string {
	last := run[len(run)-1]
	var w sqlWriter
	w.Grow(len(last.Table) + withSize(run[:len(run)-1]) + len(last.Body) + 24)
	w.WriteString("CREATE TABLE ")
	w.WriteString(last.Table)
	w.WriteString(" AS WITH ")
	w.writeWith(run[:len(run)-1])
	w.WriteString("\n")
	w.WriteString(last.Body)
	return w.String()
}

// FusedStatements returns the statement sequence of Statements() with
// every maximal run of two or more consecutive chained gate stages
// collapsed into one fused CTAS. In SingleQuery mode (no per-stage
// statements) it is identical to Statements().
func (tr *Translation) FusedStatements() []string {
	out := append(make([]string, 0, len(tr.Setup)+len(tr.Steps)), tr.Setup...)
	for _, run := range chainRuns(tr.Steps) {
		if len(run) == 1 || run[0].SQL == "" {
			for _, st := range run {
				if st.SQL != "" {
					out = append(out, st.SQL)
				}
			}
			continue
		}
		out = append(out, fusedRunSQL(run))
	}
	return out
}

// FusedStageRuns reports the sizes of the chained-stage runs
// FusedStatements would fuse (runs of length one are stage-at-a-time
// either way). Useful for benchmarks and diagnostics.
func (tr *Translation) FusedStageRuns() []int {
	var out []int
	for _, run := range chainRuns(tr.Steps) {
		if len(run) > 1 && run[0].SQL != "" {
			out = append(out, len(run))
		}
	}
	return out
}
