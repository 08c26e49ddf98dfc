package telemetry

import (
	"io"
	"math"
)

// traceEvent is one Chrome/Perfetto trace-event object. Only the
// fields the format needs are emitted; encoding/json writes struct
// fields in declaration order and map keys sorted, so the serialized
// bytes are a pure function of the event sequence.
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// PerfettoExporter renders events as Chrome trace-event JSON (the
// "JSON object format"), loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Simulated seconds map to microseconds on the trace
// timebase; each track becomes one thread (tid) of process 0, labeled
// via thread_name metadata. Metrics are not part of the trace format
// and are ignored. The byte output is a pure function of the events —
// see the package determinism contract.
type PerfettoExporter struct {
	// TrackNames labels the tid tracks via thread_name metadata
	// ("track %d" when empty or missing); index = track.
	TrackNames []string
}

// Export writes evs as one trace-event JSON document.
func (x PerfettoExporter) Export(w io.Writer, evs []Event, _ []Snapshot) error {
	e := newChunkEncoder(w, nil)
	e.ensureHeader(x.TrackNames)
	for _, ev := range evs {
		e.add(ev)
	}
	e.closeTrace(x.TrackNames)
	return e.err
}

// WriteTrace exports the retained events as Chrome trace-event JSON —
// PerfettoExporter over the recorder's current state. A nil recorder
// writes a valid empty trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	return PerfettoExporter{TrackNames: r.TrackNames()}.Export(w, r.Events(), nil)
}

// simToMicros converts simulated seconds to trace-timebase
// microseconds, rounded to a stable 3-decimal grid (nanosecond
// granularity) so float formatting is reproducible.
func simToMicros(sec float64) float64 {
	return math.Round(sec*1e9) / 1e3
}

// toTraceEvent maps one recorded event onto the trace-event format.
func toTraceEvent(ev Event) traceEvent {
	te := traceEvent{
		Name: NameOf(ev.Name),
		Ts:   simToMicros(ev.Sim),
		Pid:  0,
		Tid:  int(ev.Track),
	}
	switch ev.Kind {
	case KindSpan:
		te.Ph = "X"
		d := simToMicros(ev.Dur)
		te.Dur = &d
	case KindCounter:
		te.Ph = "C"
		te.Args = map[string]any{"value": ev.Val}
		return te
	default:
		te.Ph = "i"
		te.Scope = "t"
	}
	if ev.A1 != 0 || ev.A2 != 0 {
		te.Args = make(map[string]any, 2)
		if ev.A1 != 0 {
			te.Args[NameOf(ev.A1)] = ev.V1
		}
		if ev.A2 != 0 {
			te.Args[NameOf(ev.A2)] = ev.V2
		}
	}
	return te
}
