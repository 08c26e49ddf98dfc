package mpx

import (
	"errors"
	"fmt"
	"testing"

	"simtmp/internal/envelope"
)

// drainOK drains the runtime and fails the test on error or
// non-delivery.
// startAll starts every handle in order, stopping at the first error
// (MPI_Startall over a communication plan).
func startAll(handles ...interface{ Start() error }) error {
	for _, h := range handles {
		if err := h.Start(); err != nil {
			return err
		}
	}
	return nil
}

func drainOK(t *testing.T, rt *Runtime) {
	t.Helper()
	done, err := rt.Drain(10000)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Drain: receives left open")
	}
}

func TestPersistentPlainChannelAllLevels(t *testing.T) {
	for _, lvl := range []Level{FullMPI, NoSourceWildcard, NoUnexpected, Unordered} {
		t.Run(lvl.String(), func(t *testing.T) {
			rt := New(Config{Level: lvl, GPUs: 2})
			buf := []byte("iter-0")
			ps, err := rt.SendInit(0, 1, 7, 0, buf)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := rt.RecvInit(1, 0, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			const iters = 5
			for i := 0; i < iters; i++ {
				copy(buf, fmt.Sprintf("iter-%d", i))
				if err := pr.Start(); err != nil {
					t.Fatal(err)
				}
				if err := ps.Start(); err != nil {
					t.Fatal(err)
				}
				drainOK(t, rt)
				if !pr.Done() {
					t.Fatalf("iteration %d not delivered", i)
				}
				m, err := pr.Message()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := string(m.Payload), fmt.Sprintf("iter-%d", i); got != want {
					t.Fatalf("iteration %d payload = %q, want %q", i, got, want)
				}
			}
			if pr.Iterations() != iters {
				t.Errorf("Iterations = %d, want %d", pr.Iterations(), iters)
			}
			st := rt.Stats()
			if st.PersistentSends != iters || st.PersistentRecvs != iters {
				t.Errorf("persistent counts = %d/%d, want %d", st.PersistentSends, st.PersistentRecvs, iters)
			}
			// First iteration runs the engine (a miss) and seals; the
			// rest are cache hits.
			if st.CacheMisses != 1 || st.CacheSeals != 1 {
				t.Errorf("misses/seals = %d/%d, want 1/1", st.CacheMisses, st.CacheSeals)
			}
			if st.CacheHits != iters-1 {
				t.Errorf("hits = %d, want %d", st.CacheHits, iters-1)
			}
			if !pr.Sealed() {
				t.Error("channel not sealed after steady state")
			}
			if err := ps.Free(); err != nil {
				t.Fatal(err)
			}
			if err := pr.Free(); err != nil {
				t.Fatal(err)
			}
			if pr.Sealed() {
				t.Error("Free left the channel sealed")
			}
		})
	}
}

func TestPersistentNoCacheModeMatchesResults(t *testing.T) {
	run := func(disable bool) ([]string, Stats) {
		rt := New(Config{Level: FullMPI, GPUs: 2, DisablePersistentCache: disable})
		buf := []byte("x-0")
		ps, err := rt.SendInit(0, 1, 3, 0, buf)
		if err != nil {
			panic(err)
		}
		pr, err := rt.RecvInit(1, 0, 3, 0)
		if err != nil {
			panic(err)
		}
		var out []string
		for i := 0; i < 4; i++ {
			buf[2] = byte('0' + i)
			if err := startAll(pr, ps); err != nil {
				panic(err)
			}
			if done, err := rt.Drain(10000); err != nil || !done {
				panic(fmt.Sprint(done, err))
			}
			m, err := pr.Message()
			if err != nil {
				panic(err)
			}
			out = append(out, string(m.Payload))
		}
		return out, rt.Stats()
	}
	cached, cst := run(false)
	plain, pst := run(true)
	for i := range cached {
		if cached[i] != plain[i] {
			t.Errorf("iteration %d: cached %q != nocache %q", i, cached[i], plain[i])
		}
	}
	if cst.CacheHits == 0 {
		t.Error("cached run recorded no hits")
	}
	if pst.CacheHits != 0 || pst.CacheSeals != 0 {
		t.Errorf("nocache run sealed/hit: %+v", pst)
	}
	if pst.CacheMisses != 4 {
		t.Errorf("nocache misses = %d, want 4", pst.CacheMisses)
	}
	if cst.Matches != pst.Matches || cst.Sends != pst.Sends {
		t.Errorf("match/send totals diverge: cached %d/%d, nocache %d/%d",
			cst.Matches, cst.Sends, pst.Matches, pst.Sends)
	}
}

func TestPersistentInvalidationByPlainPost(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	ps, _ := rt.SendInit(0, 1, 7, 0, []byte("persistent"))
	pr, _ := rt.RecvInit(1, 0, 7, 0)

	// Two iterations: sealed after the first, hit on the second.
	for i := 0; i < 2; i++ {
		if err := startAll(pr, ps); err != nil {
			t.Fatal(err)
		}
		drainOK(t, rt)
	}
	if !pr.Sealed() {
		t.Fatal("not sealed after two iterations")
	}

	// A plain post on the same (comm, tag) shadow unseals the handle...
	r, err := rt.PostRecv(1, envelope.AnySource, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Sealed() {
		t.Fatal("plain post on the shadow left the handle sealed")
	}
	if st := rt.Stats(); st.CacheInvalidations == 0 {
		t.Error("no invalidation counted")
	}

	// ...and the wildcard recv (posted first) wins the next message,
	// while the re-armed persistent iteration runs the engine and gets
	// the second — full-MPI posted order, cached handle bypassed.
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Send(0, 1, 7, 0, []byte("for-wildcard")); err != nil {
		t.Fatal(err)
	}
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	drainOK(t, rt)
	m, err := r.Message()
	if err != nil || string(m.Payload) != "for-wildcard" {
		t.Fatalf("wildcard recv got %q, %v", m.Payload, err)
	}
	pm, err := pr.Message()
	if err != nil || string(pm.Payload) != "persistent" {
		t.Fatalf("persistent recv got %q, %v", pm.Payload, err)
	}
	// The uncontested engine iteration re-earns the seal.
	if !pr.Sealed() {
		t.Error("handle not re-sealed after a clean engine iteration")
	}
	if st := rt.Stats(); st.CacheSeals != 2 {
		t.Errorf("seals = %d, want 2 (initial + re-seal)", st.CacheSeals)
	}
}

func TestPersistentPartitioned(t *testing.T) {
	rt := New(Config{Level: Unordered, GPUs: 2})
	parts := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	ps, err := rt.SendInitPartitioned(0, 1, 9, 0, parts)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rt.RecvInitPartitioned(1, 0, 9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Partitions() != 3 || pr.Partitions() != 3 {
		t.Fatal("partition counts wrong")
	}
	for iter := 0; iter < 3; iter++ {
		if err := startAll(pr, ps); err != nil {
			t.Fatal(err)
		}
		// Fire partitions out of order: identity travels in the wire
		// header, so arrival order cannot permute the data.
		for _, i := range []int{2, 0, 1} {
			if err := ps.Pready(i); err != nil {
				t.Fatal(err)
			}
		}
		drainOK(t, rt)
		for i, want := range []string{"aa", "bb", "cc"} {
			if !pr.Parrived(i) {
				t.Fatalf("iter %d: partition %d not arrived", iter, i)
			}
			got, err := pr.Partition(i)
			if err != nil || string(got) != want {
				t.Fatalf("iter %d partition %d = %q, %v", iter, i, got, err)
			}
		}
	}
	st := rt.Stats()
	if st.PersistentRecvs != 9 {
		t.Errorf("PersistentRecvs = %d, want 9", st.PersistentRecvs)
	}
	// 3 partitions missed in iteration one, 6 hits after sealing.
	if st.CacheMisses != 3 || st.CacheHits != 6 {
		t.Errorf("misses/hits = %d/%d, want 3/6", st.CacheMisses, st.CacheHits)
	}
	// Rebind a partition and run another iteration.
	if err := ps.Bind(1, []byte("BB")); err != nil {
		t.Fatal(err)
	}
	if err := startAll(pr, ps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ps.Pready(i); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, rt)
	if got, _ := pr.Partition(1); string(got) != "BB" {
		t.Errorf("rebound partition = %q", got)
	}
}

func TestPersistentPartitionedMisuse(t *testing.T) {
	rt := New(Config{GPUs: 2})
	ps, _ := rt.SendInitPartitioned(0, 1, 9, 0, [][]byte{[]byte("a"), []byte("b")})
	plain, _ := rt.SendInit(0, 1, 8, 0, []byte("p"))

	if err := ps.Pready(0); err == nil {
		t.Error("Pready before Start accepted")
	}
	if err := plain.Pready(0); err == nil {
		t.Error("Pready on non-partitioned channel accepted")
	}
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Pready(2); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := ps.Pready(0); err != nil {
		t.Fatal(err)
	}
	if err := ps.Pready(0); err == nil {
		t.Error("duplicate Pready accepted")
	}
	if err := ps.Start(); err == nil {
		t.Error("Start with unfired partitions accepted")
	}
	if err := ps.Bind(1, []byte("x")); err == nil {
		t.Error("Bind mid-iteration accepted")
	}
	if err := ps.Free(); err == nil {
		t.Error("Free mid-iteration accepted")
	}
	if err := ps.Pready(1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Free(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Start(); err == nil {
		t.Error("Start on freed channel accepted")
	}

	if _, err := rt.SendInitPartitioned(0, 1, 9, 0, nil); err == nil {
		t.Error("0-partition channel accepted")
	}
	if _, err := rt.RecvInitPartitioned(1, envelope.AnySource, 9, 0, 2); err == nil {
		t.Error("wildcard partitioned recv accepted")
	}
}

func TestPersistentPlainSendOnPartitionedTuple(t *testing.T) {
	// A plain 1-byte send interleaved on a partitioned tuple cannot
	// carry a partition header: the channel reports a sticky error and
	// the iteration terminates instead of wedging Drain.
	rt := New(Config{GPUs: 2})
	pr, _ := rt.RecvInitPartitioned(1, 0, 9, 0, 2)
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Send(0, 1, 9, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if pr.Err() == nil {
		t.Fatal("malformed partition frame not reported")
	}
	if _, err := pr.Partition(0); err == nil {
		t.Error("Partition read succeeded after delivery error")
	}
	// Start clears the error and the channel remains usable.
	ps, _ := rt.SendInitPartitioned(0, 1, 9, 0, [][]byte{[]byte("a"), []byte("b")})
	if err := startAll(pr, ps); err != nil {
		t.Fatal(err)
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ps.Pready(i); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, rt)
	if got, err := pr.Partition(1); err != nil || string(got) != "b" {
		t.Fatalf("recovery iteration partition = %q, %v", got, err)
	}
}

func TestPersistentWildcardChannelNeverSeals(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	pr, err := rt.RecvInit(1, envelope.AnySource, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pr.Start(); err != nil {
			t.Fatal(err)
		}
		if err := rt.Send(0, 1, 7, 0, []byte("w")); err != nil {
			t.Fatal(err)
		}
		drainOK(t, rt)
		if !pr.Done() {
			t.Fatal("not delivered")
		}
	}
	if pr.Sealed() {
		t.Error("wildcard channel sealed")
	}
	st := rt.Stats()
	if st.CacheHits != 0 || st.CacheSeals != 0 {
		t.Errorf("wildcard channel hit the cache: %+v", st)
	}
	if st.CacheMisses != 3 {
		t.Errorf("misses = %d, want 3", st.CacheMisses)
	}
	// Levels that prohibit the wildcard reject it at init: pinned for
	// every receive verb by TestRecvVerbsShareAdmission.
}

func TestPersistentRecvMisuse(t *testing.T) {
	rt := New(Config{GPUs: 2})
	pr, _ := rt.RecvInit(1, 0, 7, 0)
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Start(); err == nil {
		t.Error("Start mid-iteration accepted")
	}
	if err := pr.Free(); err == nil {
		t.Error("Free mid-iteration accepted")
	}
	if _, err := pr.Message(); !errors.Is(err, ErrNotDelivered) {
		t.Errorf("Message before delivery: %v", err)
	}
	ps, _ := rt.SendInit(0, 1, 7, 0, []byte("x"))
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	drainOK(t, rt)
	if err := pr.Free(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Start(); err == nil {
		t.Error("Start on freed recv accepted")
	}
	if _, err := rt.RecvInit(5, 0, 7, 0); err == nil {
		t.Error("out-of-range GPU accepted")
	}
	if _, err := rt.SendInit(0, 5, 7, 0, nil); err == nil {
		t.Error("out-of-range dst accepted")
	}
}

// TestPersistentRefireZeroAlloc pins the acceptance criterion: once a
// channel is sealed and the frame pool is warm, a full re-fire
// iteration (Start both sides + Drain) allocates nothing.
func TestPersistentRefireZeroAlloc(t *testing.T) {
	rt := New(Config{Level: Unordered, GPUs: 2})
	buf := make([]byte, 64)
	ps, err := rt.SendInit(0, 1, 7, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rt.RecvInit(1, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	iter := func() {
		if err := pr.Start(); err != nil {
			panic(err)
		}
		if err := ps.Start(); err != nil {
			panic(err)
		}
		if done, err := rt.Drain(1000); err != nil || !done {
			panic(fmt.Sprint(done, err))
		}
	}
	// Warm up: seal the channel, size the pools and scratch buffers.
	for i := 0; i < 8; i++ {
		iter()
	}
	if !pr.Sealed() {
		t.Fatal("channel not sealed after warmup")
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Errorf("re-fire iteration allocates %.1f objects, want 0", avg)
	}
	st := rt.Stats()
	if hits := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses); hits < 0.99 {
		t.Errorf("hit rate %.3f < 0.99", hits)
	}
}

// TestPersistentSameTupleChannelsOrdered exercises two persistent
// channels sharing one tuple at an ordered level: cached delivery must
// honor posted (Start) order exactly like the engine would.
func TestPersistentSameTupleChannelsOrdered(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	psA, _ := rt.SendInit(0, 1, 7, 0, []byte("first"))
	psB, _ := rt.SendInit(0, 1, 7, 0, []byte("second"))
	prA, _ := rt.RecvInit(1, 0, 7, 0)
	prB, _ := rt.RecvInit(1, 0, 7, 0)
	for i := 0; i < 4; i++ {
		// prA starts before prB every iteration; same-flow sends keep
		// wire order, so prA must always land "first".
		if err := startAll(prA, prB, psA, psB); err != nil {
			t.Fatal(err)
		}
		drainOK(t, rt)
		a, err := prA.Message()
		if err != nil || string(a.Payload) != "first" {
			t.Fatalf("iter %d: prA got %q, %v", i, a.Payload, err)
		}
		b, err := prB.Message()
		if err != nil || string(b.Payload) != "second" {
			t.Fatalf("iter %d: prB got %q, %v", i, b.Payload, err)
		}
	}
	if st := rt.Stats(); st.CacheHits == 0 {
		t.Error("same-tuple channels never hit the cache")
	}
}

// TestPersistentDrainCountsOpenIterations: an armed sealed channel has
// nothing in the posted queue, but Drain must still wait for it.
func TestPersistentDrainCountsOpenIterations(t *testing.T) {
	rt := New(Config{GPUs: 2})
	ps, _ := rt.SendInit(0, 1, 7, 0, []byte("x"))
	pr, _ := rt.RecvInit(1, 0, 7, 0)
	for i := 0; i < 2; i++ {
		if err := startAll(pr, ps); err != nil {
			t.Fatal(err)
		}
		drainOK(t, rt)
	}
	if !pr.Sealed() {
		t.Fatal("not sealed")
	}
	// Armed but nothing sent: Drain reaches the fixed point with the
	// iteration still open and reports not-done rather than hanging or
	// lying.
	if err := pr.Start(); err != nil {
		t.Fatal(err)
	}
	done, err := rt.Drain(1000)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("Drain reported done with an armed undelivered iteration")
	}
	// The late fire completes it.
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	drainOK(t, rt)
	if !pr.Done() {
		t.Error("iteration not delivered")
	}
}
