package gas

import (
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
)

func TestClusterPutDrain(t *testing.T) {
	c := NewCluster(3, arch.PascalGTX1080(), 16)
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	if err := c.PutStream(2, envelope.Envelope{Src: 0, Tag: 5}, []byte("hi"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PutStream(2, envelope.Envelope{Src: 1, Tag: 6}, nil, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	g := c.GPU(2)
	if g.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", g.Pending())
	}
	msgs := g.Drain()
	if len(msgs) != 2 {
		t.Fatalf("Drain returned %d messages", len(msgs))
	}
	if msgs[0].Env.Src != 0 || string(msgs[0].Payload) != "hi" {
		t.Errorf("first message = %+v", msgs[0])
	}
	if msgs[1].Env.Tag != 6 {
		t.Errorf("second message = %+v", msgs[1])
	}
	if g.Pending() != 0 {
		t.Error("queue not empty after Drain")
	}
}

func TestPutErrors(t *testing.T) {
	c := NewCluster(1, arch.KeplerK80(), 2)
	if err := c.PutStream(5, envelope.Envelope{}, nil, 0, 0, 0); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := c.PutStream(0, envelope.Envelope{Src: -1}, nil, 0, 0, 0); err == nil {
		t.Error("invalid envelope accepted")
	}
	// Queue overflow.
	for i := 0; i < 2; i++ {
		if err := c.PutStream(0, envelope.Envelope{Src: 0, Tag: envelope.Tag(i)}, nil, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutStream(0, envelope.Envelope{Src: 0, Tag: 9}, nil, 0, 0, 0); err == nil {
		t.Error("overflow not reported")
	}
}

func TestNewClusterPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewCluster(0, arch.PascalGTX1080(), 8)
}

func TestDefaultQueueCap(t *testing.T) {
	c := NewCluster(1, arch.PascalGTX1080(), 0)
	if got := c.GPU(0).Ring().Cap(); got != 4096 {
		t.Errorf("default cap = %d, want 4096", got)
	}
}

func TestCreditsReturnedOnDrain(t *testing.T) {
	c := NewCluster(2, arch.PascalGTX1080(), 3)
	for i := 0; i < 3; i++ {
		if err := c.PutStream(1, envelope.Envelope{Src: 0, Tag: envelope.Tag(i)}, nil, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Ring full: back-pressure.
	if err := c.PutStream(1, envelope.Envelope{Src: 0, Tag: 9}, nil, 0, 0, 0); err == nil {
		t.Fatal("push over capacity succeeded")
	}
	// Drain returns credits; sending works again.
	if got := len(c.GPU(1).Drain()); got != 3 {
		t.Fatalf("Drain = %d, want 3", got)
	}
	if err := c.PutStream(1, envelope.Envelope{Src: 0, Tag: 9}, nil, 0, 0, 0); err != nil {
		t.Fatalf("post-drain put: %v", err)
	}
}

// TestDrainDiscardsInvalidWordAtomically: an invalid word consumes its
// side entry with it — the following valid message still pairs with
// its own payload — and the anomaly is counted.
func TestDrainDiscardsInvalidWordAtomically(t *testing.T) {
	c := NewCluster(1, arch.PascalGTX1080(), 8)
	if err := c.PutStream(0, envelope.Envelope{Src: 1, Tag: 1}, []byte("a"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A word without the valid bit, carrying its own side entry.
	if err := c.PutWordStream(0, 0, []byte("junk"), 7, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PutStream(0, envelope.Envelope{Src: 2, Tag: 2}, []byte("b"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	msgs := c.Drain(0)
	if len(msgs) != 2 {
		t.Fatalf("Drain delivered %d messages, want 2", len(msgs))
	}
	if string(msgs[0].Payload) != "a" || string(msgs[1].Payload) != "b" {
		t.Fatalf("payloads desynchronized: %q, %q", msgs[0].Payload, msgs[1].Payload)
	}
	if msgs[1].Env.Src != 2 {
		t.Errorf("second message header = %v", msgs[1].Env)
	}
	st := c.GPU(0).LinkStats()
	if st.Invalid != 1 || st.Corrupt != 0 {
		t.Errorf("LinkStats = %+v, want Invalid=1 Corrupt=0", st)
	}
}

// TestDrainDetectsCorruptHeader: a single flipped bit in a sealed
// header is caught by the checksum, counted, and the message dropped
// rather than delivered with a wrong envelope.
func TestDrainDetectsCorruptHeader(t *testing.T) {
	for bit := 0; bit < 62; bit++ { // bit 62 clears the valid flag → Invalid path
		c := NewCluster(1, arch.PascalGTX1080(), 4)
		w := envelope.Envelope{Src: 3, Tag: 9, Comm: 1}.Pack() ^ 1<<bit
		if err := c.PutWordStream(0, w, []byte("x"), 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		msgs := c.Drain(0)
		if len(msgs) != 0 {
			t.Fatalf("bit %d: corrupted header delivered as %v", bit, msgs[0].Env)
		}
		if st := c.GPU(0).LinkStats(); st.Corrupt != 1 {
			t.Fatalf("bit %d: LinkStats = %+v, want Corrupt=1", bit, st)
		}
	}
}

// TestDrainKeepingCredits: the receiver can withhold credits; the
// sender stays back-pressured until ReturnCredits flushes them.
func TestDrainKeepingCredits(t *testing.T) {
	c := NewCluster(1, arch.PascalGTX1080(), 2)
	for i := 0; i < 2; i++ {
		if err := c.PutStream(0, envelope.Envelope{Src: 0, Tag: envelope.Tag(i)}, nil, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.GPU(0).DrainKeepingCredits()); got != 2 {
		t.Fatalf("drained %d, want 2", got)
	}
	if err := c.PutStream(0, envelope.Envelope{Src: 0, Tag: 5}, nil, 0, 0, 0); err == nil {
		t.Fatal("send succeeded while credits were withheld")
	}
	c.GPU(0).Ring().ReturnCredits()
	if err := c.PutStream(0, envelope.Envelope{Src: 0, Tag: 5}, nil, 0, 0, 0); err != nil {
		t.Fatalf("send after credit flush: %v", err)
	}
}

// TestFlowAndSeqDelivered: both sequence numbers ride with the message.
func TestFlowAndSeqDelivered(t *testing.T) {
	c := NewCluster(2, arch.PascalGTX1080(), 4)
	if err := c.PutStream(1, envelope.Envelope{Src: 0, Tag: 1}, nil, 42, 7, 0); err != nil {
		t.Fatal(err)
	}
	msgs := c.Drain(1)
	if len(msgs) != 1 || msgs[0].Seq != 42 || msgs[0].Flow != 7 {
		t.Fatalf("msgs = %+v, want Seq=42 Flow=7", msgs)
	}
}

// TestDrainReusesBuffer pins the drain-buffer reuse contract: the
// slice returned by Drain is owned by the GPU and recycled by the next
// Drain, so steady-state draining allocates nothing and successive
// drains alias the same backing array.
func TestDrainReusesBuffer(t *testing.T) {
	c := NewCluster(2, nil, 16)
	env := envelope.Envelope{Src: 0, Tag: 7}
	payloads := [][]byte{{0}, {1}, {2}, {3}}
	fill := func() {
		for i := 0; i < 4; i++ {
			if err := c.PutStream(1, env, payloads[i], uint64(i), uint64(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	fill()
	first := c.Drain(1)
	if len(first) != 4 {
		t.Fatalf("first drain returned %d messages, want 4", len(first))
	}

	fill()
	allocs := testing.AllocsPerRun(10, func() {
		c.Drain(1)
		fill()
	})
	c.Drain(1)
	if allocs != 0 {
		t.Errorf("steady-state drain allocates %v per call, want 0", allocs)
	}

	fill()
	second := c.Drain(1)
	if len(second) != 4 {
		t.Fatalf("second drain returned %d messages, want 4", len(second))
	}
	if &first[0] != &second[0] {
		t.Errorf("drain did not reuse its buffer: distinct backing arrays across drains")
	}
}
