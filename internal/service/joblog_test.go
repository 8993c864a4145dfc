package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

func TestJobLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []logRecord{
		{Type: "submit", JobID: "job-1", Tenant: "a", Request: json.RawMessage(`{"circuit":{}}`)},
		{Type: "start", JobID: "job-1", Tenant: "a"},
		{Type: "done", JobID: "job-1", Tenant: "a", Result: &ResultJSON{NumQubits: 2, Amplitudes: []Amplitude{{S: 3, R: 0.125, I: -0.5}}}},
		{Type: "cancel", JobID: "job-2"},
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Appended(); got != int64(len(want)) {
		t.Fatalf("appended %d, want %d", got, len(want))
	}
	l.Close()

	recs, corrupt, err := replayJobLog(jobLogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("clean log replayed %d corrupt records", corrupt)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Type != want[i].Type || rec.JobID != want[i].JobID || rec.Tenant != want[i].Tenant {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, want[i])
		}
	}
	// Result floats round-trip exactly.
	if a := recs[2].Result.Amplitudes[0]; a.S != 3 || a.R != 0.125 || a.I != -0.5 {
		t.Fatalf("done record result mangled: %+v", a)
	}
}

// TestJobLogCorruptTail: a torn or checksum-corrupt tail is skipped
// with a count — never an error — and the file is truncated back to
// its valid prefix so the log stays appendable.
func TestJobLogCorruptTail(t *testing.T) {
	writeLog := func(t *testing.T, dir string, n int) string {
		l, err := openJobLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Append(logRecord{Type: "submit", JobID: "job-1"}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		return jobLogPath(dir)
	}

	t.Run("truncated-payload", func(t *testing.T) {
		path := writeLog(t, t.TempDir(), 3)
		st, _ := os.Stat(path)
		if err := os.Truncate(path, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		recs, corrupt, err := replayJobLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || corrupt != 1 {
			t.Fatalf("got %d records, %d corrupt; want 2, 1", len(recs), corrupt)
		}
	})

	t.Run("checksum-mismatch", func(t *testing.T) {
		path := writeLog(t, t.TempDir(), 3)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the LAST record's payload.
		recLen := int64(binary.LittleEndian.Uint32(data[:4])) + 8
		lastStart := int64(len(data)) - recLen
		data[lastStart+8] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, corrupt, err := replayJobLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || corrupt != 1 {
			t.Fatalf("got %d records, %d corrupt; want 2, 1", len(recs), corrupt)
		}
		// The file was truncated to the valid prefix: appends after a
		// corrupt tail replay cleanly.
		if st, _ := os.Stat(path); st.Size() != 2*recLen {
			t.Fatalf("file not truncated: %d bytes, want %d", st.Size(), 2*recLen)
		}
	})

	t.Run("garbage-length", func(t *testing.T) {
		path := writeLog(t, t.TempDir(), 1)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[:4], 1<<31) // over maxLogRecord
		f.Write(frame[:])
		f.Close()
		recs, corrupt, err := replayJobLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || corrupt != 1 {
			t.Fatalf("got %d records, %d corrupt; want 1, 1", len(recs), corrupt)
		}
	})

	t.Run("missing-file", func(t *testing.T) {
		recs, corrupt, err := replayJobLog(jobLogPath(t.TempDir()))
		if err != nil || len(recs) != 0 || corrupt != 0 {
			t.Fatalf("missing file: recs=%d corrupt=%d err=%v", len(recs), corrupt, err)
		}
	})

	// A manager must boot on a corrupt-tailed log and count the skips.
	t.Run("manager-boots", func(t *testing.T) {
		dir := t.TempDir()
		path := writeLog(t, dir, 2)
		st, _ := os.Stat(path)
		if err := os.Truncate(path, st.Size()-3); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManager(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("corrupt tail must not fail boot: %v", err)
		}
		defer m.Close()
		if rs := m.Replay(); rs.CorruptRecords != 1 || rs.Records != 1 {
			t.Fatalf("replay stats %+v", rs)
		}
	})
}

// replayAmplitudes fetches a done job's amplitudes through Snapshot.
func replayAmplitudes(t *testing.T, m *Manager, id string) []Amplitude {
	t.Helper()
	j, err := m.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot(j, true)
	if snap.Status != string(JobDone) {
		t.Fatalf("job %s: status %s (err %q)", id, snap.Status, snap.Error)
	}
	if snap.Result == nil {
		t.Fatalf("job %s: done without result", id)
	}
	return snap.Result.Amplitudes
}

// TestManagerReplayDifferential is the tentpole's differential test: a
// manager with a job log runs some jobs to completion and "crashes"
// with others still queued; a second manager on the same data dir must
// (a) keep the completed jobs' results queryable and (b) re-enqueue and
// re-execute the interrupted ones — and every amplitude, replayed or
// re-run, must be bit-identical to an uninterrupted run of the same
// circuit.
func TestManagerReplayDifferential(t *testing.T) {
	dir := t.TempDir()
	workloads := []*quantum.Circuit{
		circuits.GHZ(8),
		circuits.QFT(6),
		circuits.GHZ(5),
		circuits.QFT(5),
	}
	// Uninterrupted reference runs.
	var want []*quantum.State
	for _, c := range workloads {
		res, err := (&sim.SQL{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.State)
	}

	// First life: complete the first two jobs, leave the rest queued
	// (workers=1 and a slow blocker keeps them in the queue), then shut
	// down without draining — Close does not log cancels, so the queued
	// jobs keep their "submitted" durable state, exactly as a crash
	// would leave them.
	m1, err := OpenManager(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var ids []string
	for i, c := range workloads[:2] {
		j, err := m1.Submit(Request{Circuit: circuitDoc(t, c)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := m1.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Blocker occupies the single worker so the last two stay queued.
	blocker, err := m1.Submit(Request{Circuit: circuitDoc(t, circuits.ParitySuperposition(16))})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range workloads[2:] {
		j, err := m1.Submit(Request{Circuit: circuitDoc(t, c)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	m1.Close() // crash-like: queued/running jobs keep durable state

	// Second life: replay.
	m2, err := OpenManager(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rs := m2.Replay()
	if rs.CompletedKept != 2 {
		t.Fatalf("replay kept %d completed jobs, want 2 (%+v)", rs.CompletedKept, rs)
	}
	// The blocker plus the two queued jobs were interrupted.
	if rs.Requeued != 3 {
		t.Fatalf("replay requeued %d jobs, want 3 (%+v)", rs.Requeued, rs)
	}
	if rs.CorruptRecords != 0 {
		t.Fatalf("clean log replayed %d corrupt records", rs.CorruptRecords)
	}

	// Interrupted jobs re-execute to completion.
	for _, id := range append(ids[2:], blocker.ID) {
		if _, err := m2.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	// Every job — replayed-from-log or re-executed — is bit-identical
	// to its uninterrupted reference.
	for i, id := range ids {
		statesEqualBits(t, want[i], replayAmplitudes(t, m2, id))
	}

	// New submissions must not collide with replayed ids.
	j, err := m2.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(3))})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range append(ids, blocker.ID) {
		if j.ID == old {
			t.Fatalf("new job reused replayed id %s", j.ID)
		}
	}
}

// TestManagerReplayThirdLife: a second restart still serves the full
// history (all jobs now terminal), proving replay is idempotent.
func TestManagerReplayThirdLife(t *testing.T) {
	dir := t.TempDir()
	c := circuits.GHZ(6)
	ref, err := (&sim.SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := OpenManager(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := m1.Submit(Request{Circuit: circuitDoc(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	for life := 0; life < 2; life++ {
		m, err := OpenManager(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if rs := m.Replay(); rs.CompletedKept != 1 || rs.Requeued != 0 {
			m.Close()
			t.Fatalf("life %d: replay stats %+v", life, rs)
		}
		statesEqualBits(t, ref.State, replayAmplitudes(t, m, j.ID))
		m.Close()
	}
}

// TestManagerReplayRemovedOptions: a durable log written before the
// layout, optimizer, encodings, kernels, chain_fusion and parallelism
// options were removed still replays. A job submitted with all six set
// and running at the crash is re-executed after restart, reaches done,
// and its amplitudes are bit-identical to a fresh run.
func TestManagerReplayRemovedOptions(t *testing.T) {
	dir := t.TempDir()
	c := circuits.QFT(5)
	fresh, err := (&sim.SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(map[string]any{
		"circuit": circuitDoc(t, c),
		"backend": "sql",
		"options": map[string]any{
			"layout": "row", "optimizer": "off", "encodings": "off",
			"kernels": "off", "chain_fusion": "off", "parallelism": 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []logRecord{
		{Type: "submit", JobID: "job-1", Time: now, Request: req},
		{Type: "start", JobID: "job-1", Time: now},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	m, err := OpenManager(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rs := m.Replay(); rs.Requeued != 1 || rs.CorruptRecords != 0 {
		t.Fatalf("replay stats %+v, want one requeued job and no corrupt records", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, "job-1"); err != nil {
		t.Fatal(err)
	}
	statesEqualBits(t, fresh.State, replayAmplitudes(t, m, "job-1"))
}
