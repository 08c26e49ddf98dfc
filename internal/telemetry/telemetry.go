// Package telemetry is the runtime's observability plane: a typed
// event model, a bounded per-track ring-buffer flight recorder, a
// metrics registry (counters, fixed-bucket histograms), and three
// exporters sharing one Export(w, events, metrics) signature —
// PerfettoExporter (Chrome/Perfetto trace-event JSON), SummaryExporter
// (a human-readable digest) and StreamExporter (the trace as
// watermark-sized chunks, the one-shot form of the live Streamer). All
// are deterministic: same inputs, same bytes.
//
// Two contracts shape the design:
//
//   - Zero-allocation recording. Event storage is preallocated per
//     track; names and argument labels are interned once (package
//     setup) into NameIDs so no emission path touches a map, boxes an
//     interface, or formats a string. Once a ring reaches capacity it
//     overwrites its oldest events (flight-recorder semantics) rather
//     than growing.
//
//   - Determinism. Recorded ordering is defined entirely by simulated
//     time plus emission order — no time.Now anywhere in the recording
//     path — so two runs of a seeded workload produce byte-identical
//     exported traces. Host wall-clock stamping exists for interactive
//     profiling but is opt-in (Config.HostClock) and excluded from the
//     determinism contract.
//
// A nil *Recorder is a valid no-op recorder: every method is nil-safe,
// so instrumented code carries no telemetry branches beyond the
// receiver check and the disabled configuration costs nothing on hot
// paths (the zero-allocation and determinism contracts of the match
// engines hold unchanged).
//
// Recording is driven by one goroutine — the runtime's progress loop —
// which is what defines the deterministic emission order. The recorder
// itself is mutex-guarded, so a supervisor goroutine may additionally
// call Snapshot at any time for a consistent copy-on-read view (see
// Capture) without stopping the runtime, and a Streamer attached via
// Config.Stream drains the ring incrementally to an io.Writer as the
// simulated clock advances (see StreamConfig).
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindInstant is a point event (a fault firing, a retransmission).
	KindInstant Kind = iota
	// KindSpan is a duration event (a match pass, a drain phase).
	KindSpan
	// KindCounter is a sampled counter-track value (queue depth,
	// occupancy).
	KindCounter
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInstant:
		return "instant"
	case KindSpan:
		return "span"
	case KindCounter:
		return "counter"
	default:
		return "unknown"
	}
}

// NameID is an interned event or argument name. The zero NameID is
// "no name" (used for absent arguments).
type NameID uint32

// names is the process-global intern table. Registration happens in
// package-initialization order (instrumented packages hold their IDs
// in package vars), so IDs are stable within a process; exported
// traces carry the resolved strings, never the IDs, keeping exports
// byte-identical across processes regardless of init order.
var names = struct {
	sync.RWMutex
	byName map[string]NameID
	list   []string
}{byName: map[string]NameID{"": 0}, list: []string{""}}

// Name interns s and returns its stable NameID. Interning is cheap but
// takes a lock: call it once at setup (package var, constructor), not
// on recording paths.
func Name(s string) NameID {
	names.Lock()
	defer names.Unlock()
	if id, ok := names.byName[s]; ok {
		return id
	}
	id := NameID(len(names.list))
	names.list = append(names.list, s)
	names.byName[s] = id
	return id
}

// NameOf resolves an interned NameID ("" for the zero ID or an
// unknown one).
func NameOf(id NameID) string {
	names.RLock()
	defer names.RUnlock()
	if int(id) >= len(names.list) {
		return ""
	}
	return names.list[id]
}

// Event is one recorded telemetry event. The struct is a fixed-size
// value — recording copies it into preallocated ring storage.
type Event struct {
	// Sim is the simulated time of the event (span start), in seconds.
	Sim float64
	// Dur is the span duration in simulated seconds (KindSpan only).
	Dur float64
	// Val is the sampled value (KindCounter only).
	Val float64
	// Wall is the host wall clock at emission in nanoseconds since an
	// arbitrary process epoch; zero unless Config.HostClock is set.
	Wall int64
	// V1, V2 are the argument values named by A1, A2.
	V1, V2 int64
	// Name identifies the event.
	Name NameID
	// A1, A2 name the arguments (0 = absent).
	A1, A2 NameID
	// Track is the timeline the event belongs to (one per GPU).
	Track int32
	// Kind classifies the event.
	Kind Kind
}

// Config parameterizes a Recorder. The zero value is "off": New
// returns a nil (no-op) recorder unless Enabled is set.
type Config struct {
	// Enabled turns recording on.
	Enabled bool
	// BufferSize is the per-track ring capacity in events, rounded up
	// to a power of two (default 8192). A full ring overwrites its
	// oldest events.
	BufferSize int
	// Tracks preallocates this many tracks (default 1). Emitting on a
	// higher track grows the track table — an allocation, so size this
	// to the cluster up front on zero-alloc paths.
	Tracks int
	// HostClock additionally stamps events with the host wall clock.
	// Off by default: wall timestamps vary run to run, so enabling it
	// forfeits byte-identical exported traces.
	HostClock bool
	// Stream, when set with a non-nil writer, attaches a live Streamer
	// to the recorder: retained events are incrementally exported to
	// Stream.W as chunked trace-event JSON while the clock advances,
	// so long soaks stream their full history through a bounded ring.
	Stream *StreamConfig
}

// withDefaults fills zero fields and normalizes BufferSize to a power
// of two.
func (c Config) withDefaults() Config {
	if c.BufferSize <= 0 {
		c.BufferSize = 8192
	}
	size := 1
	for size < c.BufferSize {
		size <<= 1
	}
	c.BufferSize = size
	if c.Tracks <= 0 {
		c.Tracks = 1
	}
	return c
}

// track is one bounded event timeline.
type track struct {
	buf  []Event
	mask uint64
	n    uint64 // events ever emitted; buf index is i & mask
	name NameID
}

// Recorder is the flight recorder: per-track bounded event rings plus
// the metrics registry. Recording happens from the runtime's single
// driving goroutine (the engines' host-parallel workers never emit —
// instrumentation sits in the sequential orchestration code), which is
// what keeps recorded ordering deterministic; the mutex exists so that
// a second goroutine may take a Snapshot — or read Len/Dropped/Events —
// concurrently with emission without a data race.
type Recorder struct {
	mu        sync.Mutex
	hostClock bool
	bufSize   int
	clock     float64
	epoch     time.Time
	tracks    []track
	stream    *Streamer
	reg       Registry
}

// New returns a recorder for cfg, or nil — the valid no-op recorder —
// when cfg.Enabled is false.
func New(cfg Config) *Recorder {
	if !cfg.Enabled {
		return nil
	}
	cfg = cfg.withDefaults()
	r := &Recorder{
		hostClock: cfg.HostClock,
		bufSize:   cfg.BufferSize,
		epoch:     time.Now(),
		tracks:    make([]track, cfg.Tracks),
	}
	for i := range r.tracks {
		r.tracks[i] = newTrack(cfg.BufferSize)
	}
	if cfg.Stream != nil && cfg.Stream.W != nil {
		// Cannot fail: the recorder is fresh and the writer non-nil.
		if _, err := NewStreamer(r, *cfg.Stream); err != nil {
			panic("telemetry: " + err.Error())
		}
	}
	return r
}

func newTrack(size int) track {
	return track{buf: make([]Event, size), mask: uint64(size - 1)}
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetClock sets the simulated-time cursor subsequent clock-relative
// emissions stamp. The runtime calls it once per progress step. With a
// streamer attached this is also the drain edge: events recorded with
// a simulated time before the new cursor are finalized for streaming
// (every emission site stamps at or after the current cursor, so the
// finalized prefix is complete).
func (r *Recorder) SetClock(sim float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = sim
	if r.stream != nil {
		r.stream.advanceLocked(sim)
	}
	r.mu.Unlock()
}

// Clock returns the simulated-time cursor (0 for nil).
func (r *Recorder) Clock() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// SetTrackName labels a track for exports ("GPU 0"). Setup path: it
// may allocate (growing the track table).
func (r *Recorder) SetTrackName(tr int, name string) {
	if r == nil || tr < 0 {
		return
	}
	id := Name(name)
	r.mu.Lock()
	r.grow(tr)
	r.tracks[tr].name = id
	r.mu.Unlock()
}

// TrackName returns the label of a track ("" when unnamed).
func (r *Recorder) TrackName(tr int) string {
	if r == nil || tr < 0 {
		return ""
	}
	r.mu.Lock()
	var id NameID
	if tr < len(r.tracks) {
		id = r.tracks[tr].name
	}
	r.mu.Unlock()
	return NameOf(id)
}

// TrackNames returns the labels of all tracks, index = track id ("" for
// unnamed tracks; nil for a nil recorder).
func (r *Recorder) TrackNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trackNamesLocked()
}

func (r *Recorder) trackNamesLocked() []string {
	out := make([]string, len(r.tracks))
	for i := range r.tracks {
		out[i] = NameOf(r.tracks[i].name)
	}
	return out
}

// Tracks returns the number of tracks (0 for nil).
func (r *Recorder) Tracks() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tracks)
}

// Metrics returns the recorder's metrics registry (nil for a nil
// recorder; the registry's own methods are nil-safe in turn).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return &r.reg
}

// Stream returns the attached live streamer (nil when none).
func (r *Recorder) Stream() *Streamer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stream
}

// Pump ingests newly recorded events into the attached streamer's
// buffer before the ring can overwrite them. The runtime calls it at
// batch boundaries — the end of each progress step and each kernel
// launch — so a streamed run only needs the ring to hold one batch of
// emissions, not the whole history. Pump never writes to the stream:
// chunk boundaries depend only on SetClock advances and the watermark,
// keeping the streamed bytes independent of how often the runtime
// pumps. No-op without a streamer, or on a nil recorder.
func (r *Recorder) Pump() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.stream != nil && !r.stream.closed {
		r.stream.ingestLocked()
	}
	r.mu.Unlock()
}

// CloseStream finalizes the attached streamer: ingests and flushes all
// remaining events, writes the trace footer, and returns the stream's
// first error. Idempotent; nil without a streamer. The recorder itself
// stays usable (the ring is not consumed by streaming), but further
// clock advances no longer stream.
func (r *Recorder) CloseStream() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream == nil {
		return nil
	}
	return r.stream.closeLocked()
}

// grow ensures track tr exists (setup/cold path).
func (r *Recorder) grow(tr int) {
	for len(r.tracks) <= tr {
		r.tracks = append(r.tracks, newTrack(r.bufSize))
	}
}

// emit appends ev to its track's ring, overwriting the oldest event
// once the ring is full. Steady-state cost: one bounds check, one
// struct copy. Callers hold r.mu.
func (r *Recorder) emit(ev Event) {
	tr := int(ev.Track)
	if tr < 0 {
		return
	}
	if tr >= len(r.tracks) {
		r.grow(tr)
	}
	if r.hostClock {
		ev.Wall = int64(time.Since(r.epoch))
	}
	t := &r.tracks[tr]
	t.buf[t.n&t.mask] = ev
	t.n++
}

// Instant records a point event at the clock cursor.
func (r *Recorder) Instant(tr int, name NameID, a1 NameID, v1 int64, a2 NameID, v2 int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindInstant, Track: int32(tr), Name: name, Sim: r.clock, A1: a1, V1: v1, A2: a2, V2: v2})
	r.mu.Unlock()
}

// InstantAt records a point event at an explicit simulated time.
func (r *Recorder) InstantAt(tr int, name NameID, sim float64, a1 NameID, v1 int64, a2 NameID, v2 int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindInstant, Track: int32(tr), Name: name, Sim: sim, A1: a1, V1: v1, A2: a2, V2: v2})
	r.mu.Unlock()
}

// Span records a duration event [start, start+dur) in simulated
// seconds.
func (r *Recorder) Span(tr int, name NameID, start, dur float64, a1 NameID, v1 int64, a2 NameID, v2 int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindSpan, Track: int32(tr), Name: name, Sim: start, Dur: dur, A1: a1, V1: v1, A2: a2, V2: v2})
	r.mu.Unlock()
}

// Counter records a counter-track sample at the clock cursor.
func (r *Recorder) Counter(tr int, name NameID, val float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindCounter, Track: int32(tr), Name: name, Sim: r.clock, Val: val})
	r.mu.Unlock()
}

// CounterAt records a counter-track sample at an explicit simulated
// time.
func (r *Recorder) CounterAt(tr int, name NameID, sim, val float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindCounter, Track: int32(tr), Name: name, Sim: sim, Val: val})
	r.mu.Unlock()
}

// Len returns the number of retained events across all tracks.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Recorder) lenLocked() int {
	n := 0
	for i := range r.tracks {
		n += r.tracks[i].retained()
	}
	return n
}

// Dropped returns the number of events overwritten by ring wrap-around
// across all tracks.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

func (r *Recorder) droppedLocked() uint64 {
	var d uint64
	for i := range r.tracks {
		t := &r.tracks[i]
		if t.n > uint64(len(t.buf)) {
			d += t.n - uint64(len(t.buf))
		}
	}
	return d
}

// Emitted returns the number of events ever emitted across all tracks,
// including those the ring has since overwritten.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emittedLocked()
}

func (r *Recorder) emittedLocked() uint64 {
	var n uint64
	for i := range r.tracks {
		n += r.tracks[i].n
	}
	return n
}

func (t *track) retained() int {
	if t.n > uint64(len(t.buf)) {
		return len(t.buf)
	}
	return int(t.n)
}

// keyedEvent pairs an event with its per-track emission index so ties
// in simulated time sort deterministically.
type keyedEvent struct {
	ev  Event
	idx uint64 // per-track emission index (monotone)
}

// sortKeyed orders events for export: ascending simulated time, ties
// broken by track then per-track emission order. The order is a pure
// function of the recorded sequence, so seeded replays export
// identically — and because it compares only (Sim, Track, idx), any
// partition of the events into increasing disjoint Sim ranges sorts
// each part exactly as the whole would, which is what makes streamed
// chunk concatenation equal the post-hoc export.
func sortKeyed(all []keyedEvent) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.Sim != b.ev.Sim {
			return a.ev.Sim < b.ev.Sim
		}
		if a.ev.Track != b.ev.Track {
			return a.ev.Track < b.ev.Track
		}
		return a.idx < b.idx
	})
}

// Events returns a copy of the retained events in export order. Cold
// path — it allocates freely.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *Recorder) eventsLocked() []Event {
	var all []keyedEvent
	for ti := range r.tracks {
		t := &r.tracks[ti]
		n := t.retained()
		start := t.n - uint64(n)
		for i := 0; i < n; i++ {
			seq := start + uint64(i)
			all = append(all, keyedEvent{ev: t.buf[seq&t.mask], idx: seq})
		}
	}
	sortKeyed(all)
	out := make([]Event, len(all))
	for i, k := range all {
		out[i] = k.ev
	}
	return out
}
