package bench

import (
	"errors"
	"os"
	"strings"
	"testing"
)

func rec(name, kind string, v float64, higher bool) BenchRecord {
	return BenchRecord{Name: name, Kind: kind, Value: v, HigherIsBetter: higher}
}

// TestCompare covers the per-kind regression rules: sim rates use the
// relative tolerance, alloc counts are exact, wall records are opt-in,
// and baseline records missing from the run always fail.
func TestCompare(t *testing.T) {
	base := BenchReport{Records: []BenchRecord{
		rec("rate/a", KindSim, 100, true),
		rec("rate/b", KindSim, 100, true),
		rec("allocs", KindAlloc, 0, false),
		rec("ns_op", KindWall, 1000, false),
	}}

	t.Run("clean", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{
			rec("rate/a", KindSim, 95, true),  // -5% < 15% tolerance
			rec("rate/b", KindSim, 130, true), // improvements never fail
			rec("allocs", KindAlloc, 0, false),
			rec("ns_op", KindWall, 5000, false), // wall skipped by default
		}}
		if regs := Compare(base, cur, 0.15, false); len(regs) != 0 {
			t.Errorf("Compare = %v, want none", regs)
		}
	})

	t.Run("sim beyond tolerance", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{
			rec("rate/a", KindSim, 80, true), // -20%
			rec("rate/b", KindSim, 100, true),
			rec("allocs", KindAlloc, 0, false),
			rec("ns_op", KindWall, 1000, false),
		}}
		regs := Compare(base, cur, 0.15, false)
		if len(regs) != 1 || regs[0].Name != "rate/a" {
			t.Errorf("Compare = %v, want exactly rate/a", regs)
		}
	})

	t.Run("alloc increase is exact", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{
			rec("rate/a", KindSim, 100, true),
			rec("rate/b", KindSim, 100, true),
			rec("allocs", KindAlloc, 1, false), // 0 -> 1 fails regardless of tolerance
			rec("ns_op", KindWall, 1000, false),
		}}
		regs := Compare(base, cur, 0.5, false)
		if len(regs) != 1 || regs[0].Name != "allocs" {
			t.Errorf("Compare = %v, want exactly allocs", regs)
		}
	})

	t.Run("wall opt-in", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{
			rec("rate/a", KindSim, 100, true),
			rec("rate/b", KindSim, 100, true),
			rec("allocs", KindAlloc, 0, false),
			rec("ns_op", KindWall, 5000, false),
		}}
		regs := Compare(base, cur, 0.15, true)
		if len(regs) != 1 || regs[0].Name != "ns_op" {
			t.Errorf("Compare = %v, want exactly ns_op", regs)
		}
	})

	t.Run("missing record fails", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{
			rec("rate/a", KindSim, 100, true),
			rec("allocs", KindAlloc, 0, false),
		}}
		regs := Compare(base, cur, 0.15, false)
		if len(regs) != 1 || regs[0].Name != "rate/b" || !regs[0].Missing {
			t.Errorf("Compare = %v, want rate/b missing", regs)
		}
	})
}

// TestWriteBaselineRefusesVacuousRecord: a zero-valued higher-is-better
// sim record passes every comparison, so it is never blessed; zero
// lower-is-better and alloc records stay legal.
func TestWriteBaselineRefusesVacuousRecord(t *testing.T) {
	dir := t.TempDir()
	bad := BenchReport{Date: "2026-01-01", Records: []BenchRecord{
		rec("rate/a", KindSim, 100, true),
		rec("persist/x/refire_speedup", KindSim, 0, true),
	}}
	if _, err := WriteBaseline(dir, bad); err == nil {
		t.Error("WriteBaseline blessed a zero higher-is-better sim record")
	}
	if _, _, err := LoadLatestBaseline(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused baseline left a file behind: %v", err)
	}
	ok := BenchReport{Date: "2026-01-01", Records: []BenchRecord{
		rec("soak/x/umq_peak", KindSim, 0, false),
		rec("host/x/allocs_op", KindAlloc, 0, false),
	}}
	if _, err := WriteBaseline(dir, ok); err != nil {
		t.Errorf("zero lower-is-better records refused: %v", err)
	}
}

// TestBaselineRoundtrip: WriteBaseline then LoadLatestBaseline returns
// the same report, and the lexicographically latest date wins.
func TestBaselineRoundtrip(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := LoadLatestBaseline(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: err = %v, want ErrNotExist", err)
	}

	old := BenchReport{Date: "2026-01-01", GoMaxProcs: 4,
		Records: []BenchRecord{rec("rate/a", KindSim, 50, true)}}
	cur := BenchReport{Date: "2026-08-06", GoMaxProcs: 8,
		Records: []BenchRecord{rec("rate/a", KindSim, 100, true)}}
	for _, r := range []BenchReport{cur, old} { // write newest first: order must not matter
		if _, err := WriteBaseline(dir, r); err != nil {
			t.Fatal(err)
		}
	}

	got, path, err := LoadLatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != cur.Date || got.GoMaxProcs != cur.GoMaxProcs {
		t.Errorf("loaded %+v from %s, want the %s report", got, path, cur.Date)
	}
	if len(got.Records) != 1 || got.Records[0] != cur.Records[0] {
		t.Errorf("records roundtrip mismatch: %+v", got.Records)
	}
}

// mutationRegressions runs the named Mutations entry's family clean
// and mutated, and returns the records the mutated run regressed at
// Tolerance. It fails t if the mutation moved nothing, or moved a
// record outside its own family.
func mutationRegressions(t *testing.T, name string) map[string]bool {
	t.Helper()
	m, ok := LookupMutation(name)
	if !ok {
		t.Fatalf("no mutation %q", name)
	}
	clean, err := m.records(0, "")
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := m.records(0, name)
	if err != nil {
		t.Fatal(err)
	}
	regs := Compare(BenchReport{Records: clean}, BenchReport{Records: mutated}, Tolerance, false)
	if len(regs) == 0 {
		t.Fatalf("mutation %s tripped no record", name)
	}
	flagged := map[string]bool{}
	for _, r := range regs {
		if !strings.HasPrefix(r.Name, m.Prefix) {
			t.Errorf("mutation %s regressed %s, outside its %s family", name, r.Name, m.Prefix)
		}
		flagged[r.Name] = true
	}
	return flagged
}
