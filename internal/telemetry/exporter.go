package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

const (
	traceHeader = `{"displayTimeUnit":"ns","traceEvents":[`
	traceFooter = "]}\n"
)

// chunkEncoder incrementally serializes the Chrome trace-event "JSON
// object format": an opening header, comma-joined event objects, and a
// closing footer. Both the post-hoc PerfettoExporter and the live
// Streamer drive this same encoder, which is what makes the
// concatenation of streamed chunks byte-identical to the post-hoc
// export by construction rather than by careful coincidence.
//
// A chunk is the unit of output: bytes accumulate in a buffer and
// reach the writer in one Write per flush. When onChunk is set, each
// flushed chunk is additionally delivered as a standalone JSON array
// of its trace events (newline-terminated) — parseable on its own,
// unlike the raw wire bytes, which are fragments of the enclosing
// trace object.
type chunkEncoder struct {
	w       io.Writer
	onChunk func(chunk []byte)
	buf     bytes.Buffer // wire bytes of the chunk being built
	arr     bytes.Buffer // the chunk's events as array elements, for onChunk
	started bool         // header written
	any     bool         // at least one element written (comma state)
	chunks  uint64
	events  uint64
	bytes   uint64
	err     error // sticky: first write/marshal failure
}

func newChunkEncoder(w io.Writer, onChunk func([]byte)) *chunkEncoder {
	return &chunkEncoder{w: w, onChunk: onChunk}
}

// ensureHeader opens the trace object and emits one thread_name
// metadata event per track (falling back to "track %d"), exactly as
// the original single-shot exporter did.
func (e *chunkEncoder) ensureHeader(trackNames []string) {
	if e.started || e.err != nil {
		return
	}
	e.started = true
	e.buf.WriteString(traceHeader)
	for tr, name := range trackNames {
		if name == "" {
			name = fmt.Sprintf("track %d", tr)
		}
		e.addTE(traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tr,
			Args: map[string]any{"name": name},
		})
	}
}

// addTE appends one trace-event object to the current chunk.
func (e *chunkEncoder) addTE(te traceEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(te)
	if err != nil {
		e.err = err
		return
	}
	if e.any {
		e.buf.WriteByte(',')
	}
	e.any = true
	e.buf.Write(b)
	if e.onChunk != nil {
		if e.arr.Len() > 0 {
			e.arr.WriteByte(',')
		}
		e.arr.Write(b)
	}
}

// add appends one recorded event to the current chunk.
func (e *chunkEncoder) add(ev Event) {
	e.addTE(toTraceEvent(ev))
	if e.err == nil {
		e.events++
	}
}

// flush writes the accumulated chunk to the writer in one call and
// hands the standalone array form to onChunk. A flush with nothing
// accumulated is a no-op.
func (e *chunkEncoder) flush() {
	if e.err != nil || e.buf.Len() == 0 {
		return
	}
	n, err := e.w.Write(e.buf.Bytes())
	e.bytes += uint64(n)
	e.buf.Reset()
	if err != nil {
		e.err = err
		return
	}
	e.chunks++
	if e.onChunk != nil && e.arr.Len() > 0 {
		line := make([]byte, 0, e.arr.Len()+3)
		line = append(line, '[')
		line = append(line, e.arr.Bytes()...)
		line = append(line, ']', '\n')
		e.onChunk(line)
		e.arr.Reset()
	}
}

// closeTrace writes the footer (opening the trace first if nothing was
// ever written, so an empty export is still a valid trace) and flushes
// the final chunk.
func (e *chunkEncoder) closeTrace(trackNames []string) {
	if e.err != nil {
		return
	}
	e.ensureHeader(trackNames)
	e.buf.WriteString(traceFooter)
	e.flush()
}

// StreamExporter writes events as chunked Perfetto trace-event JSON:
// byte-identical to PerfettoExporter, but delivered as watermark-sized
// chunks with the same OnChunk side channel the live Streamer offers.
// It is the one-shot form of streaming — for exporting a finished
// Capture (or any event slice) through the chunked path without a live
// recorder. Metrics are not part of the trace format and are ignored.
type StreamExporter struct {
	// TrackNames labels the tid tracks via thread_name metadata
	// ("track %d" when empty or missing); index = track.
	TrackNames []string
	// Watermark is the number of events per chunk (default 256).
	Watermark int
	// OnChunk, when set, additionally receives each chunk as a
	// standalone JSON array of its trace events, newline-terminated.
	OnChunk func(chunk []byte)
}

// Export writes evs as the chunked trace.
func (x StreamExporter) Export(w io.Writer, evs []Event, _ []Snapshot) error {
	wm := x.Watermark
	if wm <= 0 {
		wm = defaultWatermark
	}
	e := newChunkEncoder(w, x.OnChunk)
	e.ensureHeader(x.TrackNames)
	for i, ev := range evs {
		e.add(ev)
		if (i+1)%wm == 0 {
			e.flush()
		}
	}
	e.closeTrace(x.TrackNames)
	return e.err
}
