package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTable2CSV is the golden-output smoke test: the Table II
// section in CSV mode must emit a header row and one line per
// semantic level.
func TestRunTable2CSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-table2", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a CSV header plus data rows, got %q", got)
	}
	header := strings.ToLower(lines[0])
	if !strings.Contains(header, ",") {
		t.Fatalf("first line is not a CSV header: %q", lines[0])
	}
	for _, want := range []string{"full", "hash"} {
		if !strings.Contains(strings.ToLower(got), want) {
			t.Errorf("Table II output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFig6bCSV smoke-tests a second section so a regression in the
// shared section plumbing cannot hide behind a single golden case.
func TestRunFig6bCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig6b", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) < 2 {
		t.Fatalf("want CSV rows, got %q", out.String())
	}
}

// TestRunTable2Formatted: without -csv the section prints the human
// table followed by a blank separator line.
func TestRunTable2Formatted(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-table2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table II") && !strings.Contains(strings.ToLower(out.String()), "relax") {
		t.Errorf("formatted output does not look like Table II:\n%s", out.String())
	}
	if !strings.HasSuffix(out.String(), "\n\n") {
		t.Error("formatted sections must end with a separator blank line")
	}
}

// TestRunChaosCSV smoke-tests the chaos section: CSV mode must emit
// one row per semantic level, every row reporting zero failures.
func TestRunChaosCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-chaos", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("want header + 5 level rows, got %d lines:\n%s", len(lines), out.String())
	}
	if !strings.Contains(strings.ToLower(lines[0]), "failures") {
		t.Fatalf("header missing failures column: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",0") {
			t.Errorf("chaos row reports failures: %q", line)
		}
	}
}

// TestRunNoSections: invoking without any section flag prints usage
// and exits 2 — the historical CLI contract scripts rely on.
func TestRunNoSections(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-table2") {
		t.Errorf("usage output missing section flags:\n%s", errOut.String())
	}
	if out.String() != "" {
		t.Errorf("usage must go to stderr, stdout got %q", out.String())
	}
}

// TestRunUnknownFlag: a bad flag is a usage error, not a crash.
func TestRunUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-section"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "no-such-section") {
		t.Errorf("error output does not name the bad flag:\n%s", errOut.String())
	}
}

// TestSectionFlagsUnique guards the section registry against duplicate
// flag names, which would panic at flag registration in production.
func TestSectionFlagsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range sections() {
		if seen[s.flagName] {
			t.Errorf("duplicate section flag %q", s.flagName)
		}
		seen[s.flagName] = true
		if s.help == "" {
			t.Errorf("section %q has no help text", s.flagName)
		}
	}
}

// TestRunTraceJSON is the -trace smoke test: the emitted file must be
// valid Chrome trace-event JSON with events on it, and the summary must
// land on stdout when asked for.
func TestRunTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errOut strings.Builder
	if code := run([]string{"-trace", path, "-trace.summary"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("emitted trace has no events")
	}
	for i, ev := range tf.TraceEvents {
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("event %d has no ph field: %v", i, ev)
		}
	}
	if !strings.Contains(out.String(), "telemetry:") || !strings.Contains(out.String(), "mpx.sends") {
		t.Errorf("-trace.summary output missing summary:\n%s", out.String())
	}
}

// TestRunTraceStream is the -trace.stream smoke test: the live-
// streamed file must equal the post-hoc -trace file for the same seed
// byte for byte, and every line of the -trace.chunks sidecar must
// parse on its own as a JSON array of trace events.
func TestRunTraceStream(t *testing.T) {
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "stream.json")
	chunkPath := filepath.Join(dir, "chunks.jsonl")
	tracePath := filepath.Join(dir, "trace.json")

	var out, errOut strings.Builder
	if code := run([]string{"-trace.stream", streamPath, "-trace.chunks", chunkPath, "-trace.seed", "3"}, &out, &errOut); code != 0 {
		t.Fatalf("stream run exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "stream: wrote") {
		t.Errorf("missing stream report on stdout:\n%s", out.String())
	}
	if strings.Contains(errOut.String(), "missed") {
		t.Errorf("stream reported drops: %s", errOut.String())
	}
	var out2, errOut2 strings.Builder
	if code := run([]string{"-trace", tracePath, "-trace.seed", "3"}, &out2, &errOut2); code != 0 {
		t.Fatalf("post-hoc run exit code %d, stderr: %s", code, errOut2.String())
	}

	streamed, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	posthoc, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, posthoc) {
		t.Errorf("streamed file (%d bytes) != post-hoc file (%d bytes) for the same seed",
			len(streamed), len(posthoc))
	}

	chunks, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(chunks), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("chunks sidecar is empty")
	}
	for i, line := range lines {
		var evs []map[string]any
		if err := json.Unmarshal([]byte(line), &evs); err != nil {
			t.Fatalf("chunk line %d is not a JSON array: %v", i, err)
		}
		if len(evs) == 0 {
			t.Fatalf("chunk line %d is empty", i)
		}
		for j, ev := range evs {
			ph, _ := ev["ph"].(string)
			switch ph {
			case "M", "X", "i", "C":
			default:
				t.Fatalf("chunk %d event %d: bad ph %q", i, j, ph)
			}
		}
	}
}

// TestRunSoakCSV: -soak -csv emits one row per tracked soak record
// with the SLO names in the first column.
func TestRunSoakCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-soak", "-csv", "-soak.messages", "4000"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 53 {
		t.Fatalf("want header + 52 record rows, got %d:\n%s", len(lines), out.String())
	}
	for _, want := range []string{
		"soak/steady/p50_us", "soak/bursty/p99_us", "soak/faulty/p999_us",
		"soak/overload/1.5x/caps_ok", "soak/overload/2x/shed_total", "soak/overload/slow/caps_ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("CSV missing record %q", want)
		}
	}
}

// TestRunMutateUsage: -mutate takes only a family from the mutation
// table, and a mutated run is never blessed — the refusal comes before
// the suite runs, so nothing is written.
func TestRunMutateUsage(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-regress", "-mutate=nosuch", "-regress.dir", dir}, "unknown -mutate family"},
		{[]string{"-regress.write", "-regress", "-mutate=persist", "-regress.dir", dir}, "refusing to bless"},
		{[]string{"-table2", "-mutate=soak"}, "needs -regress"},
		{[]string{"-persistent", "-mutate=soak"}, "needs -regress"},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code %d, want 2", tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errOut.String(), tc.want)
		}
		if out.String() != "" {
			t.Errorf("%v: a refused run printed %q", tc.args, out.String())
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused runs left %d files in the baseline dir (err %v)", len(entries), err)
	}
}

// TestRunTraceDeterministic: the same -trace.seed must emit
// byte-identical files across invocations.
func TestRunTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		var out, errOut strings.Builder
		if code := run([]string{"-trace", p, "-trace.seed", "7"}, &out, &errOut); code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed emitted different trace bytes")
	}
}
