package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// Span layers. Each span the benchmark records wraps its own calls
// into one layer; every span of a round is a child of the round span.
const (
	lRound = iota
	lPost
	lSend
	lProgress
	lDrain
	lRead
	lVerify
	lMatch
	lSimt
	lQueue
	lEnvelope
	lGas
	lRing
	numLayers
)

// layerNames are the span names; the part before the dot is the
// module, which is also the pprof "layer" label.
var layerNames = [numLayers]string{
	"bench.round", "mpx.post", "mpx.send", "mpx.progress", "mpx.drain", "mpx.read", "bench.verify",
	"match.replay", "simt.replay", "queue.replay", "envelope.replay", "gas.replay", "ring.replay",
}

var layerModules = [numLayers]string{
	"bench", "mpx", "mpx", "mpx", "mpx", "mpx", "bench",
	"match", "simt", "queue", "envelope", "gas", "ring",
}

// replayLayers are the replays of the work progress steps perform; their
// time over the progress and drain time is trace.replay_coverage.
var replayLayers = []int{lMatch, lQueue, lEnvelope, lGas, lRing}

// span is one recorded interval. Times are nanoseconds since the
// tracer started; ops counts the operations inside the span.
type span struct {
	id, parent int32
	layer      uint8
	start, end int64
	ops        int32
}

// maxSpans bounds the spans kept in memory for the trace file; the
// per-layer totals keep counting past it.
const maxSpans = 1 << 18

// tracer records spans in memory. A nil *tracer records nothing, so
// the untraced path pays one nil check per span.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	nextID  int32
	round   int32 // id of the open round span (parent of the others)
	// dropStart holds the start of an open span past maxSpans; spans
	// of one layer never nest.
	dropStart [numLayers]int64
	labels    [numLayers]context.Context
	base      context.Context

	// Per-layer totals over every span, recorded or dropped.
	total [numLayers]int64
	ops   [numLayers]int64
	count [numLayers]int64
}

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
	t.base = context.Background()
	for l := range t.labels {
		t.labels[l] = pprof.WithLabels(t.base, pprof.Labels("workload", workload, "layer", layerModules[l]))
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginRound opens a round's span; every span until endRound is its
// child.
func (t *tracer) beginRound() int {
	if t == nil {
		return -1
	}
	t.nextID++
	t.round = t.nextID
	return t.open(lRound, t.round, 0)
}

func (t *tracer) endRound(i, ops int) {
	if t == nil {
		return
	}
	t.close(i, ops)
	t.round = 0
	pprof.SetGoroutineLabels(t.base)
}

// begin opens a child span of the current round.
func (t *tracer) begin(layer int) int {
	if t == nil {
		return -1
	}
	t.nextID++
	return t.open(layer, t.nextID, t.round)
}

// end closes span i, recording ops operations inside it.
func (t *tracer) end(i, ops int) {
	if t == nil {
		return
	}
	t.close(i, ops)
	pprof.SetGoroutineLabels(t.labels[lRound])
}

// open starts a span and returns its index, or -1-layer once the span
// buffer is full (the span then only counts in the layer totals).
func (t *tracer) open(layer int, id, parent int32) int {
	pprof.SetGoroutineLabels(t.labels[layer])
	now := t.now()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		t.dropStart[layer] = now
		return -1 - layer
	}
	t.spans = append(t.spans, span{id: id, parent: parent, layer: uint8(layer), start: now})
	return len(t.spans) - 1
}

func (t *tracer) close(i, ops int) {
	end := t.now()
	var layer int
	var start int64
	if i >= 0 {
		s := &t.spans[i]
		s.end, s.ops = end, int32(ops)
		layer, start = int(s.layer), s.start
	} else {
		layer = -1 - i
		start = t.dropStart[layer]
	}
	t.total[layer] += end - start
	t.ops[layer] += int64(ops)
	t.count[layer]++
}

// nsPerOp returns the layer's mean nanoseconds per operation.
func (t *tracer) nsPerOp(layer int) float64 {
	if t.ops[layer] == 0 {
		return 0
	}
	return float64(t.total[layer]) / float64(t.ops[layer])
}

// selfTimes returns each layer's self time: its span time minus the
// time its child spans cover. Only round spans have children.
func (t *tracer) selfTimes() [numLayers]int64 {
	self := t.total
	for l := 1; l < numLayers; l++ {
		self[lRound] -= t.total[l]
	}
	return self
}

// writeTable prints the per-layer self-time table.
func (t *tracer) writeTable(w io.Writer, workload string) {
	self := t.selfTimes()
	var all int64
	for _, v := range self {
		all += v
	}
	order := make([]int, numLayers)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return self[order[a]] > self[order[b]] })
	fmt.Fprintf(w, "self-time %s: %-16s %8s %12s %8s %10s\n", workload, "layer", "spans", "self_ms", "share", "ns/op")
	for _, l := range order {
		if t.count[l] == 0 {
			continue
		}
		fmt.Fprintf(w, "self-time %s: %-16s %8d %12.3f %7.2f%% %10.1f\n", workload, layerNames[l],
			t.count[l], float64(self[l])/1e6, 100*float64(self[l])/float64(all), t.nsPerOp(l))
	}
}

// writeSpans writes the recorded spans as Chrome trace-event JSON
// (loadable in Perfetto): one complete event per span, with the span
// id, its parent (the round) and the operation count as arguments.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"ops\":%d}}%s\n",
			layerNames[s.layer], layerModules[s.layer], float64(s.start)/1e3, float64(s.end-s.start)/1e3,
			s.id, s.parent, s.ops, sep)
	}
	fmt.Fprintln(bw, "]}")
	return bw.Flush()
}
