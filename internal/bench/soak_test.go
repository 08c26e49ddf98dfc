package bench

import (
	"strings"
	"testing"
)

// soakOnce runs the tracked soak profiles at their regression size
// (the spread budgets are calibrated there), shared across the tests
// in this file (the pipeline is deterministic, so reuse is sound).
func soakOnce(t *testing.T) []SoakResult {
	t.Helper()
	res, err := RunSoak(0, 0, 0, "")
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	return res
}

// soakProfileNames is the tracked inventory, in emission order.
var soakProfileNames = []string{
	"steady", "stream", "bursty", "faulty",
	"overload/1.5x", "overload/2x", "overload/slow",
}

// TestSoakRecordsShape pins the record inventory: every profile
// contributes its three latency SLOs, two residency peaks, and the
// spread gate; the overload profiles add their caps/shed/recovery
// gates. All deterministic sim records.
func TestSoakRecordsShape(t *testing.T) {
	res := soakOnce(t)
	if len(res) != 7 {
		t.Fatalf("profiles = %d, want 7", len(res))
	}
	recs := SoakRecords(res)
	// 6 per profile, plus caps_ok+shed_total for each overload profile
	// and recovery_ok+recovery_s for the two rate-excursion profiles.
	if len(recs) != 52 {
		t.Fatalf("records = %d, want 52", len(recs))
	}
	byName := map[string]BenchRecord{}
	for _, r := range recs {
		if r.Kind != KindSim {
			t.Errorf("%s: kind %q, want sim (soak metrics are deterministic)", r.Name, r.Kind)
		}
		if !strings.HasPrefix(r.Name, "soak/") {
			t.Errorf("record %q lacks the soak/ prefix", r.Name)
		}
		byName[r.Name] = r
	}
	for _, p := range soakProfileNames {
		for _, q := range []string{"p50_us", "p99_us", "p999_us"} {
			r, ok := byName["soak/"+p+"/"+q]
			if !ok {
				t.Errorf("missing soak/%s/%s", p, q)
				continue
			}
			if r.HigherIsBetter {
				t.Errorf("%s: latency must be lower-is-better", r.Name)
			}
			if r.Value <= 0 {
				t.Errorf("%s = %v, want > 0", r.Name, r.Value)
			}
		}
		if r := byName["soak/"+p+"/seed_spread_ok"]; r.Value != 1 {
			t.Errorf("soak/%s/seed_spread_ok = %v, want 1 (budget %v exceeded: spread too wide)",
				p, r.Value, r.Name)
		}
	}
	// p50 ≤ p99 ≤ p999 within each profile.
	for _, p := range soakProfileNames {
		p50 := byName["soak/"+p+"/p50_us"].Value
		p99 := byName["soak/"+p+"/p99_us"].Value
		p999 := byName["soak/"+p+"/p999_us"].Value
		if !(p50 <= p99 && p99 <= p999) {
			t.Errorf("%s: quantiles out of order: %v/%v/%v", p, p50, p99, p999)
		}
	}
	// Overload gates: caps held, shedding exercised, rate profiles
	// recovered their post-overload p99.
	for _, p := range []string{"overload/1.5x", "overload/2x", "overload/slow"} {
		if r := byName["soak/"+p+"/caps_ok"]; r.Value != 1 {
			t.Errorf("soak/%s/caps_ok = %v, want 1", p, r.Value)
		}
		if r := byName["soak/"+p+"/shed_total"]; r.Value <= 0 || !r.HigherIsBetter {
			t.Errorf("soak/%s/shed_total = %v (hib=%v), want > 0 and higher-is-better", p, r.Value, r.HigherIsBetter)
		}
	}
	for _, p := range []string{"overload/1.5x", "overload/2x"} {
		if r := byName["soak/"+p+"/recovery_ok"]; r.Value != 1 {
			t.Errorf("soak/%s/recovery_ok = %v, want 1", p, r.Value)
		}
		if r := byName["soak/"+p+"/recovery_s"]; r.Value <= 0 || r.HigherIsBetter {
			t.Errorf("soak/%s/recovery_s = %v (hib=%v), want > 0 and lower-is-better", p, r.Value, r.HigherIsBetter)
		}
	}
	if _, ok := byName["soak/overload/slow/recovery_ok"]; ok {
		t.Errorf("slow-consumer profile has no rate excursion; recovery_ok should not be emitted")
	}
	if _, ok := byName["soak/steady/caps_ok"]; ok {
		t.Errorf("steady profile has no overload phase; caps_ok should not be emitted")
	}
}

// TestSoakUncapFailsGate is the overload acceptance check: stripping
// the queue caps (matchbench -regress -mutate=soak) must fail the
// comparison against a capped baseline — residency peaks explode past
// tolerance and the shed records vanish or zero out.
func TestSoakUncapFailsGate(t *testing.T) {
	flagged := mutationRegressions(t, MutateSoak)
	for _, name := range []string{
		"soak/overload/1.5x/shed_total",
		"soak/overload/2x/shed_total",
		"soak/overload/slow/shed_total",
		"soak/overload/slow/prq_peak",
	} {
		if !flagged[name] {
			t.Errorf("uncapped run did not regress %s", name)
		}
	}
	for name := range flagged {
		if !strings.HasPrefix(name, "soak/overload/") {
			t.Errorf("uncapping regressed non-overload record %s", name)
		}
	}
}

// TestSoakInjectedRegression is the acceptance check for the SLO gate:
// an artificially injected 2× latency regression must fail the
// comparison on every latency record, while an unchanged run passes.
func TestSoakInjectedRegression(t *testing.T) {
	res := soakOnce(t)
	base := BenchReport{Records: SoakRecords(res)}

	if regs := Compare(base, BenchReport{Records: SoakRecords(res)}, 0.15, false); len(regs) != 0 {
		t.Fatalf("identical soak run flagged: %v", regs)
	}

	cur := BenchReport{Records: SoakRecords(res)}
	for i := range cur.Records {
		if cur.Records[i].Unit == "us" {
			cur.Records[i].Value *= 2 // injected 2× SLO regression
		}
	}
	regs := Compare(base, cur, 0.15, false)
	flagged := map[string]bool{}
	for _, r := range regs {
		flagged[r.Name] = true
	}
	for _, p := range soakProfileNames {
		for _, q := range []string{"p50_us", "p99_us", "p999_us"} {
			if !flagged["soak/"+p+"/"+q] {
				t.Errorf("2× inflated soak/%s/%s not flagged", p, q)
			}
		}
	}
	if len(regs) != 21 {
		t.Errorf("regressions = %d (%v), want exactly the 21 latency records", len(regs), regs)
	}
}

// TestSoakSpreadGateTripsCompare: a suite that loses cross-seed
// stability (seed_spread_ok 1 → 0) must register as a regression
// against a baseline that recorded 1.
func TestSoakSpreadGateTripsCompare(t *testing.T) {
	res := soakOnce(t)
	base := BenchReport{Records: SoakRecords(res)}
	cur := BenchReport{Records: SoakRecords(res)}
	for i := range cur.Records {
		if cur.Records[i].Name == "soak/steady/seed_spread_ok" {
			cur.Records[i].Value = 0
		}
	}
	regs := Compare(base, cur, 0.15, false)
	if len(regs) != 1 || regs[0].Name != "soak/steady/seed_spread_ok" {
		t.Errorf("Compare = %v, want exactly the tripped spread gate", regs)
	}
}

// TestSoakRecordsDeterministic: two full soak executions emit identical
// record sets — the property the committed baseline depends on.
func TestSoakRecordsDeterministic(t *testing.T) {
	a := SoakRecords(soakOnce(t))
	b := SoakRecords(soakOnce(t))
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestReportFingerprint: RunRegress-produced reports must carry the
// binary fingerprint (Go version always; VCS fields when stamped).
func TestReportFingerprint(t *testing.T) {
	var rep BenchReport
	rep.fingerprint()
	if rep.GoVersion == "" {
		t.Error("fingerprint left GoVersion empty")
	}
}
