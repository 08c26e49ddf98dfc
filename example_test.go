package simtmp_test

import (
	"fmt"

	"simtmp"
)

// ExampleNewRuntime shows the minimal send/recv round trip under full
// MPI semantics.
func ExampleNewRuntime() {
	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{Level: simtmp.FullMPI, GPUs: 2})
	rt.Send(0, 1, 42, 0, []byte("hello"))
	recv, _ := rt.PostRecv(1, 0, 42, 0)
	rt.Progress()
	msg, _ := recv.Message()
	fmt.Printf("%s from GPU %d\n", msg.Payload, msg.Env.Src)
	// Output: hello from GPU 0
}

// ExampleRuntime_Endpoint shows the endpoint-handle entry point with
// stream ordering contexts: under StreamOrdered each stream's traffic
// is ordered among itself, and a receive on a stream only matches
// sends on the same stream.
func ExampleRuntime_Endpoint() {
	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{Level: simtmp.StreamOrdered, GPUs: 2})
	src, _ := rt.Endpoint(0)
	dst, _ := rt.Endpoint(1)

	stSend, _ := src.Open(3) // ordering context 3 on GPU 0
	stRecv, _ := dst.Open(3) // same context id on GPU 1
	stSend.Send(1, 42, 0, []byte("stream hello"))
	src.Default().Send(1, 42, 0, []byte("default hello")) // default stream: separate context

	recv, _ := stRecv.PostRecv(0, 42, 0) // matches only stream-3 sends
	rt.Drain(100)
	msg, _ := recv.Message()
	fmt.Printf("%s on stream %d\n", msg.Payload, msg.Env.Stream)
	// Output: stream hello on stream 3
}

// ExampleNewMatrixMatcher runs the paper's MPI-compliant matching
// algorithm on a small batch and verifies against the oracle.
func ExampleNewMatrixMatcher() {
	msgs := []simtmp.Envelope{
		{Src: 3, Tag: 7}, {Src: 5, Tag: 7}, {Src: 3, Tag: 9},
	}
	reqs := []simtmp.Request{
		{Src: simtmp.AnySource, Tag: 7}, // earliest tag-7 message
		{Src: 3, Tag: simtmp.AnyTag},    // earliest remaining src-3
	}
	m := simtmp.NewMatrixMatcher(simtmp.MatrixConfig{})
	res, _ := m.Match(msgs, reqs)
	fmt.Println(res.Assignment)
	// Output: [0 2]
}

// ExampleNewHashMatcher shows the unordered relaxation: wildcard-free
// requests, any pairing of equal tuples is valid.
func ExampleNewHashMatcher() {
	msgs := []simtmp.Envelope{{Src: 1, Tag: 10}, {Src: 1, Tag: 11}}
	reqs := []simtmp.Request{{Src: 1, Tag: 11}, {Src: 1, Tag: 10}}
	h, _ := simtmp.NewHashMatcher(simtmp.HashConfig{})
	res, _ := h.Match(msgs, reqs)
	fmt.Println(res.Assignment.Matched())
	// Output: 2
}

// ExampleNewPartitionedMatcher demonstrates the no-source-wildcard
// contract: AnySource is rejected, concrete sources match in parallel
// partitions.
func ExampleNewPartitionedMatcher() {
	p := simtmp.NewPartitionedMatcher(simtmp.PartitionedConfig{Queues: 4})
	_, err := p.Match(
		[]simtmp.Envelope{{Src: 0, Tag: 1}},
		[]simtmp.Request{{Src: simtmp.AnySource, Tag: 1}})
	fmt.Println(err != nil)
	// Output: true
}

// ExampleReferenceAssignment computes the ordered-matching oracle
// directly.
func ExampleReferenceAssignment() {
	msgs := []simtmp.Envelope{{Src: 1, Tag: 1}, {Src: 1, Tag: 1}}
	reqs := []simtmp.Request{{Src: 1, Tag: 1}, {Src: 1, Tag: 1}}
	fmt.Println(simtmp.ReferenceAssignment(msgs, reqs))
	// Output: [0 1]
}

// ExampleAnalyzeTrace derives the §IV statistics from a hand-written
// trace.
func ExampleAnalyzeTrace() {
	tr := &simtmp.Trace{App: "demo", Ranks: 2, Events: []simtmp.TraceEvent{
		{Kind: 0, Rank: 0, Peer: 1, Tag: 5, Size: 64}, // send: unexpected
		{Kind: 1, Rank: 1, Peer: 0, Tag: 5, Size: 64}, // recv: drains it
	}}
	s := simtmp.AnalyzeTrace(tr)
	fmt.Printf("unexpected=%.0f%% umq-max=%.0f\n", 100*s.UnexpectedFraction, s.UMQMax.Max)
	// Output: unexpected=100% umq-max=1
}
