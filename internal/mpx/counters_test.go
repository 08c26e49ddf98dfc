package mpx

import (
	"reflect"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
)

// TestStatsLongRunCounters audits the Stats counters across a
// multi-million-message run: every counter must come out exactly
// consistent (no wraps, no drift, no double counting from repeated
// Stats reads), which is the contract the soak driver's SLO accounting
// depends on.
func TestStatsLongRunCounters(t *testing.T) {
	total := 2_000_000
	if raceEnabled {
		total = 400_000
	}
	if testing.Short() {
		total = 100_000
	}
	const batch = 8192

	rt := New(Config{Level: Unordered, GPUs: 2, QueueCap: 2 * batch})
	sent := 0
	for sent < total {
		n := batch
		if rem := total - sent; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			tag := envelope.Tag(i) // unique within the batch
			if err := rt.Send(0, 1, tag, 0, nil); err != nil {
				t.Fatalf("send %d: %v", sent+i, err)
			}
			if _, err := rt.PostRecv(1, 0, tag, 0); err != nil {
				t.Fatalf("post %d: %v", sent+i, err)
			}
		}
		ok, err := rt.Drain(10_000)
		if err != nil {
			t.Fatalf("drain at %d: %v", sent, err)
		}
		if !ok {
			t.Fatalf("drain at %d left receives open", sent)
		}
		sent += n
	}

	st := rt.Stats()
	if st.Sends != total || st.PostedRecvs != total || st.Matches != total {
		t.Errorf("sends/posted/matches = %d/%d/%d, want all %d",
			st.Sends, st.PostedRecvs, st.Matches, total)
	}
	if st.Unmatched != 0 {
		t.Errorf("unmatched = %d, want 0", st.Unmatched)
	}
	if st.Retries != 0 || st.Duplicates != 0 || st.Drops != 0 || st.Corrupt != 0 || st.Invalid != 0 {
		t.Errorf("lossless wire produced reliability counters: %+v", st)
	}
	if st.Acks != total {
		t.Errorf("acks = %d, want %d (one per delivered frame)", st.Acks, total)
	}
	if st.ProgressSteps <= 0 || st.SimSeconds <= 0 || st.Iterations <= 0 {
		t.Errorf("work counters not advancing: steps=%d sim=%v iters=%d",
			st.ProgressSteps, st.SimSeconds, st.Iterations)
	}
	if st.EagerMsgs != total || st.RendezvousMsgs != 0 {
		t.Errorf("eager/rendezvous = %d/%d, want %d/0 for empty payloads",
			st.EagerMsgs, st.RendezvousMsgs, total)
	}

	// Stats must be a pure read: a second call returns the same totals
	// (the merged link counters must not accumulate per read).
	if again := rt.Stats(); again != st {
		t.Errorf("second Stats read differs:\n first %+v\nsecond %+v", st, again)
	}
}

// TestResetStats pins the reset semantics: the whole view (including
// the merged fault-plane counters, which the runtime cannot zero at
// the source) restarts from zero, and subsequent work is accounted
// against the new zero only.
func TestResetStats(t *testing.T) {
	rt := New(Config{
		Level: FullMPI, GPUs: 2,
		Fault: &fault.Config{Seed: 7, Drop: 0.2},
	})
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := rt.Send(0, 1, envelope.Tag(i%1000), 0, nil); err != nil {
				t.Fatalf("send: %v", err)
			}
			if _, err := rt.PostRecv(1, 0, envelope.Tag(i%1000), 0); err != nil {
				t.Fatalf("post: %v", err)
			}
		}
		if ok, err := rt.Drain(100_000); err != nil || !ok {
			t.Fatalf("drain: ok=%v err=%v", ok, err)
		}
	}

	run(2000)
	before := rt.Stats()
	if before.Matches != 2000 {
		t.Fatalf("matches = %d, want 2000", before.Matches)
	}
	if before.Drops == 0 || before.Retries == 0 {
		t.Fatalf("fault plane inactive: %+v", before)
	}

	rt.ResetStats()
	if zero := rt.Stats(); zero != (Stats{}) {
		t.Errorf("Stats after ResetStats = %+v, want zero value", zero)
	}

	run(500)
	after := rt.Stats()
	if after.Matches != 500 || after.Sends != 500 {
		t.Errorf("post-reset matches/sends = %d/%d, want 500/500", after.Matches, after.Sends)
	}
	if after.Drops >= before.Drops+before.Matches {
		t.Errorf("post-reset drops %d look cumulative (pre-reset %d)", after.Drops, before.Drops)
	}
	if after.Drops == 0 {
		t.Log("note: no drops in post-reset window (legal, seed-dependent)")
	}
}

// fillStats gives every numeric leaf of v (recursing into nested
// structs such as Counters) a distinct non-zero value base, base+1, …
// and returns the next unused value. Values stay small integers, so
// float sums are exact. A field of any other kind fails the test: Add
// would have no defined way to merge it.
func fillStats(t *testing.T, v reflect.Value, path string, base int) int {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base))
		case reflect.Uint64:
			f.SetUint(uint64(base))
		case reflect.Float64:
			f.SetFloat(float64(base))
		case reflect.Struct:
			base = fillStats(t, f, name+".", base)
			continue
		default:
			t.Fatalf("Stats.%s: unsupported kind %v", name, f.Kind())
		}
		base++
	}
	return base
}

// checkStatsSum asserts every numeric leaf of got equals a's plus b's.
func checkStatsSum(t *testing.T, got, a, b reflect.Value, path string) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		g, x, y := got.Field(i), a.Field(i), b.Field(i)
		name := path + got.Type().Field(i).Name
		var ok bool
		switch g.Kind() {
		case reflect.Int, reflect.Int64:
			ok = g.Int() == x.Int()+y.Int()
		case reflect.Uint64:
			ok = g.Uint() == x.Uint()+y.Uint()
		case reflect.Float64:
			ok = g.Float() == x.Float()+y.Float()
		case reflect.Struct:
			checkStatsSum(t, g, x, y, name+".")
			continue
		}
		if !ok {
			t.Errorf("Stats.Add does not sum %s: got %v, want %v + %v", name, g, x, y)
		}
	}
}

// TestStatsAddSumsEveryField: Add is the one place Stats aggregate, so
// it must sum every counter — a field added to Stats without a line in
// Add reads 0 in every merged report (chaos, persistent) and fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	next := fillStats(t, reflect.ValueOf(&a).Elem(), "", 1)
	fillStats(t, reflect.ValueOf(&b).Elem(), "", next)
	got := a
	got.Add(b)
	checkStatsSum(t, reflect.ValueOf(got), reflect.ValueOf(a), reflect.ValueOf(b), "")
}
