package fault

import (
	"errors"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/gas"
)

func newCluster(n, cap int) *gas.Cluster {
	return gas.NewCluster(n, arch.PascalGTX1080(), cap)
}

func env(src int, tag envelope.Tag) envelope.Envelope {
	return envelope.Envelope{Src: envelope.Rank(src), Tag: tag}
}

func TestDropEatsFrame(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1, Drop: 1})
	if err := in.PutStream(1, env(0, 7), nil, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := in.Drain(1); len(got) != 0 {
		t.Fatalf("dropped frame delivered: %v", got)
	}
	if in.Counters().Drops != 1 {
		t.Fatalf("Drops = %d, want 1", in.Counters().Drops)
	}
	// A drop consumes no ring slot: the wire is idle.
	if !in.Idle() {
		t.Error("injector not idle after a drop")
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1, Duplicate: 1})
	if err := in.PutStream(1, env(0, 7), nil, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	got := in.Drain(1)
	if len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 1 {
		t.Fatalf("duplicate delivery = %v, want the frame twice", got)
	}
	if in.Counters().Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", in.Counters().Duplicates)
	}
}

func TestCorruptionIsDetectedNeverDelivered(t *testing.T) {
	// Every corrupted frame must be discarded by the receive path (as a
	// checksum failure or an invalid word), never delivered with a
	// mangled envelope.
	c := newCluster(2, 256)
	in := New(c, Config{Seed: 42, Corrupt: 1})
	const n = 200
	for i := 0; i < n; i++ {
		if err := in.PutStream(1, env(0, envelope.Tag(i)), nil, uint64(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.Drain(1); len(got) != 0 {
		t.Fatalf("%d corrupted frame(s) delivered, first %v", len(got), got[0])
	}
	if in.Counters().Corrupts != n {
		t.Fatalf("Corrupts = %d, want %d", in.Counters().Corrupts, n)
	}
	ls := c.GPU(1).LinkStats()
	if ls.Corrupt+ls.Invalid != n {
		t.Fatalf("link discarded %d+%d, want %d", ls.Corrupt, ls.Invalid, n)
	}
}

func TestDelayReleasesAfterSteps(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1, Delay: 1, MaxDelaySteps: 3})
	if err := in.PutStream(1, env(0, 7), nil, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := in.Drain(1); len(got) != 0 {
		t.Fatalf("delayed frame delivered immediately: %v", got)
	}
	if in.Idle() {
		t.Fatal("injector idle with a frame parked on the wire")
	}
	var got []gas.Message
	for step := 0; step < 5 && len(got) == 0; step++ {
		in.Step()
		got = append(got, in.Drain(1)...)
	}
	if len(got) != 1 || got[0].Env.Tag != 7 {
		t.Fatalf("delayed frame not released: %v", got)
	}
	if in.Counters().Delays != 1 {
		t.Fatalf("Delays = %d, want 1", in.Counters().Delays)
	}
}

func TestManualStallSuppressesDrain(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1})
	if err := in.PutStream(1, env(0, 7), nil, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	in.StallGPU(1, 2)
	for step := 0; step < 2; step++ {
		if got := in.Drain(1); len(got) != 0 {
			t.Fatalf("step %d: stalled GPU drained %v", step, got)
		}
		in.Step()
	}
	if got := in.Drain(1); len(got) != 1 {
		t.Fatalf("post-stall drain = %v, want the frame", got)
	}
	ctr := in.Counters()
	if ctr.Stalls != 1 || ctr.StallSteps != 2 {
		t.Fatalf("Stalls/StallSteps = %d/%d, want 1/2", ctr.Stalls, ctr.StallSteps)
	}
}

func TestManualPauseBlocksSendsAndDrains(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1})
	in.PauseGPU(0, 2)
	// The paused GPU cannot send…
	if err := in.PutStream(1, env(0, 7), nil, 1, 1, 0); !errors.Is(err, ErrPaused) {
		t.Fatalf("send from paused GPU = %v, want ErrPaused", err)
	}
	// …but a remote write INTO it still lands (its memory is alive).
	if err := in.PutStream(0, env(1, 9), nil, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	// It just cannot drain while paused.
	if got := in.Drain(0); len(got) != 0 {
		t.Fatalf("paused GPU drained %v", got)
	}
	in.Step()
	in.Step()
	if err := in.PutStream(1, env(0, 7), nil, 2, 2, 0); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if got := in.Drain(0); len(got) != 1 {
		t.Fatalf("post-restart drain = %v, want 1 frame", got)
	}
}

func TestCreditStarvationWithholdsSlots(t *testing.T) {
	const cap = 4
	c := newCluster(2, cap)
	in := New(c, Config{Seed: 1, CreditStarve: 1, StarveSteps: 2})
	for i := 0; i < cap; i++ {
		if err := in.PutStream(1, env(0, envelope.Tag(i)), nil, uint64(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.Drain(1); len(got) != cap {
		t.Fatalf("drained %d, want %d", len(got), cap)
	}
	// The drain freed all slots but withheld the credits: the sender
	// still sees a full ring.
	if err := in.PutStream(1, env(0, 99), nil, 9, 9, 0); err == nil {
		t.Fatal("send succeeded while credits withheld")
	}
	in.Step()
	in.Step()
	if err := in.PutStream(1, env(0, 99), nil, 9, 9, 0); err != nil {
		t.Fatalf("send after credit release: %v", err)
	}
	if in.Counters().CreditStarves != 1 {
		t.Fatalf("CreditStarves = %d, want 1", in.Counters().CreditStarves)
	}
}

func TestAckDropRolls(t *testing.T) {
	in := New(newCluster(2, 8), Config{Seed: 1, AckDrop: 1})
	if !in.DropAck(0, 1, 1) {
		t.Fatal("AckDrop=1 kept the ack")
	}
	if in.Counters().AckDrops != 1 {
		t.Fatalf("AckDrops = %d, want 1", in.Counters().AckDrops)
	}
	in2 := New(newCluster(2, 8), Config{Seed: 1})
	if in2.DropAck(0, 1, 1) {
		t.Fatal("AckDrop=0 dropped the ack")
	}
}

// TestReplayDeterminism: the same seed driving the same operation
// sequence produces identical fault decisions and counters.
func TestReplayDeterminism(t *testing.T) {
	run := func() (Counters, int) {
		c := newCluster(3, 32)
		in := New(c, Config{
			Seed: 7, Drop: 0.1, Duplicate: 0.1, Corrupt: 0.1, Delay: 0.1,
			AckDrop: 0.2, Stall: 0.1, Pause: 0.05, CreditStarve: 0.1,
		})
		delivered := 0
		for i := 0; i < 100; i++ {
			src, dst := i%3, (i+1)%3
			_ = in.PutStream(dst, env(src, envelope.Tag(i)), nil, uint64(i), uint64(i/3+1), 0)
			in.DropAck(src, dst, uint64(i))
			for g := 0; g < 3; g++ {
				delivered += len(in.Drain(g))
			}
			in.Step()
		}
		return in.Counters(), delivered
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("replay diverged: %+v/%d vs %+v/%d", c1, d1, c2, d2)
	}
	if c1.Drops == 0 || c1.Duplicates == 0 || c1.Corrupts == 0 || c1.Delays == 0 || c1.AckDrops == 0 {
		t.Fatalf("fault mix did not exercise every wire class: %+v", c1)
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	c := newCluster(2, 8)
	in := New(c, Config{Seed: 1})
	for i := 0; i < 5; i++ {
		if err := in.PutStream(1, env(0, envelope.Tag(i)), []byte{byte(i)}, uint64(i), uint64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := in.Drain(1)
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, m := range got {
		if int(m.Env.Tag) != i || m.Flow != uint64(i+1) || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("frame %d mangled: %+v", i, m)
		}
	}
	if (in.Counters() != Counters{}) {
		t.Fatalf("zero config injected faults: %+v", in.Counters())
	}
}
