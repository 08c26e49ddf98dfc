// Package simtmp is a reproduction of "Relaxations for
// High-Performance Message Passing on Massively Parallel SIMT
// Processors" (Klenk, Fröning, Eberle, Dennison — IPDPS 2017) as a Go
// library.
//
// It exports the library, not the harness:
//
//   - The paper's message-matching engines on a warp-accurate SIMT
//     simulator with a calibrated per-architecture timing model
//     (Kepler K80, Maxwell M40, Pascal GTX1080): the CPU list
//     baseline, the fully MPI-compliant matrix scan/reduce algorithm,
//     the rank-partitioned "no source wildcard" relaxation and the
//     two-level hash-table "no ordering" relaxation, plus the ordered
//     oracle they are checked against.
//   - A message-passing runtime (Runtime) over a simulated global
//     address space with the paper's semantic levels plus the
//     StreamOrdered relaxation (MPIX Stream ordering contexts, opened
//     as Stream handles through Runtime.Endpoint).
//   - Workload generation, the §IV trace analysis, and the paper's
//     tables and figures as typed rows.
//
// The benchmark harness (regression records, soak, persistent sweeps,
// chaos conformance, telemetry exporters) lives under internal/ and is
// driven by cmd/matchbench, cmd/experiments and cmd/tracestat.
//
// Quick start:
//
//	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{Level: simtmp.FullMPI, GPUs: 2})
//	rt.Send(0, 1, 42, 0, []byte("hello"))
//	recv, _ := rt.PostRecv(1, 0, 42, 0)
//	rt.Progress()
//	msg, _ := recv.Message()
//
// Stream-qualified traffic goes through the endpoint's Stream handles
// (available under every level); the flat Runtime verbs are the
// default stream:
//
//	ep, _ := rt.Endpoint(0)
//	st, _ := ep.Open(3) // ordering context 3
//	st.Send(1, 42, 0, []byte("hello"))
package simtmp

import (
	"simtmp/internal/arch"
	"simtmp/internal/bench"
	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/match"
	"simtmp/internal/mpx"
	"simtmp/internal/telemetry"
	"simtmp/internal/trace"
	"simtmp/internal/workload"
)

// Core matching types.
type (
	// Envelope is a message's matching header {src, tag, comm}.
	Envelope = envelope.Envelope
	// Request is a posted receive's matching criteria (may hold
	// wildcards).
	Request = envelope.Request
	// Rank identifies a process/GPU endpoint.
	Rank = envelope.Rank
	// Tag is the user message tag (16-bit budget).
	Tag = envelope.Tag
	// Comm identifies a communicator.
	Comm = envelope.Comm
	// StreamID identifies an ordering context within an endpoint (MPIX
	// Stream). It participates unconditionally in the match predicate —
	// there is no stream wildcard.
	StreamID = envelope.Stream
	// Assignment maps request indices to matched message indices.
	Assignment = match.Assignment
	// MatchResult reports one batch-matching run, including the
	// simulated device time.
	MatchResult = match.Result
	// Matcher is a batch matching engine.
	Matcher = match.Matcher
	// Arch describes a simulated GPU architecture.
	Arch = arch.Arch
)

// Wildcards.
const (
	// AnySource matches any source rank (MPI_ANY_SOURCE).
	AnySource = envelope.AnySource
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag = envelope.AnyTag
)

// Architectures the paper evaluates.
var (
	// MaxwellM40 returns the Tesla M40 configuration.
	MaxwellM40 = arch.MaxwellM40
	// PascalGTX1080 returns the GTX1080 configuration.
	PascalGTX1080 = arch.PascalGTX1080
	// Architectures returns all three in generation order.
	Architectures = arch.All
)

// Matching engine configurations.
type (
	// MatrixConfig configures the MPI-compliant matrix matcher.
	MatrixConfig = match.MatrixConfig
	// PartitionedConfig configures the rank-partitioned matcher.
	PartitionedConfig = match.PartitionedConfig
	// HashConfig configures the unordered hash-table matcher.
	HashConfig = match.HashConfig
)

// Matching engine constructors.
var (
	// NewListMatcher returns the CPU list-based baseline (§II-C).
	NewListMatcher = match.NewListMatcher
	// NewMatrixMatcher returns the MPI-compliant GPU matcher (§V).
	NewMatrixMatcher = match.NewMatrixMatcher
	// NewPartitionedMatcher returns the no-source-wildcard matcher
	// (§VI-A).
	NewPartitionedMatcher = match.NewPartitionedMatcher
	// NewHashMatcher returns the unordered hash matcher (§VI-C).
	NewHashMatcher = match.NewHashMatcher
	// ReferenceAssignment computes the ordered-matching oracle.
	ReferenceAssignment = match.Reference
	// VerifyOrderedResult checks an assignment against the ordered
	// oracle.
	VerifyOrderedResult = match.VerifyOrdered
)

// Sentinel errors.
var (
	// ErrSourceWildcard reports MPI_ANY_SOURCE under a relaxation that
	// prohibits it.
	ErrSourceWildcard = match.ErrSourceWildcard
	// ErrWildcard reports any wildcard under the unordered relaxation.
	ErrWildcard = match.ErrWildcard
	// ErrUnexpectedMessage reports an unexpected message under the
	// NoUnexpected contract.
	ErrUnexpectedMessage = mpx.ErrUnexpectedMessage
	// ErrStreamClosed reports a stream-qualified operation on a stream
	// that is not open.
	ErrStreamClosed = mpx.ErrStreamClosed
	// ErrBadConfig reports a RuntimeConfig rejected by validation
	// (NewRuntime panics wrapping it; RuntimeConfig.Normalize returns
	// it).
	ErrBadConfig = mpx.ErrBadConfig
	// ErrBackpressure is the typed refusal returned by Send (ShedReject
	// at a full staging queue) and PostRecv (full PRQ).
	ErrBackpressure = mpx.ErrBackpressure
)

// Runtime: the message-passing layer.
type (
	// RuntimeConfig parameterizes NewRuntime.
	RuntimeConfig = mpx.Config
	// Runtime is a cluster of simulated GPUs with send/recv semantics.
	// Its flat Send/PostRecv/SendInit/RecvInit verbs address the
	// default stream.
	Runtime = mpx.Runtime
	// RecvHandle is a posted receive.
	RecvHandle = mpx.Recv
	// Endpoint is one GPU's communication handle (Runtime.Endpoint),
	// from which stream ordering contexts are opened.
	Endpoint = mpx.Endpoint
	// Stream is one ordering context of an endpoint (Endpoint.Open /
	// Endpoint.Default). Under StreamOrdered, matching order is owed
	// only within a stream; under the strict levels the id is an extra
	// envelope discriminator with ordering preserved.
	Stream = mpx.Stream
	// Level selects a semantic contract (one Table II row group).
	Level = mpx.Level
	// RuntimeStats is the runtime's merged statistics, including the
	// reliability counters.
	RuntimeStats = mpx.Stats
	// FaultConfig parameterizes the seeded fault-injection plane; set
	// RuntimeConfig.Fault to enable it.
	FaultConfig = fault.Config
	// StallError reports a drain wedged with work in flight.
	StallError = mpx.StallError
	// DropError reports a message lost after its retry budget.
	DropError = mpx.DropError
	// TelemetryConfig enables and sizes the flight recorder; set
	// RuntimeConfig.Telemetry to record a run.
	TelemetryConfig = telemetry.Config
	// TelemetryRecorder is the per-runtime flight recorder
	// (Runtime.Recorder; nil is a valid no-op recorder).
	TelemetryRecorder = telemetry.Recorder
)

// Semantic levels (§VI).
const (
	// FullMPI keeps all MPI guarantees.
	FullMPI = mpx.FullMPI
	// NoSourceWildcard prohibits MPI_ANY_SOURCE (rank partitioning).
	NoSourceWildcard = mpx.NoSourceWildcard
	// NoUnexpected additionally requires pre-posted receives.
	NoUnexpected = mpx.NoUnexpected
	// Unordered drops wildcards and ordering (hash matching).
	Unordered = mpx.Unordered
	// StreamOrdered owes matching order only within each MPIX stream
	// (per-endpoint ordering contexts); wildcards stay admitted and
	// range within their stream.
	StreamOrdered = mpx.StreamOrdered
)

// NewRuntime creates a message-passing runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return mpx.New(cfg) }

// Persistent channels (DESIGN.md §15): match once, re-fire in O(1)
// through the sealed match-handle cache. Build with
// Runtime.SendInit/RecvInit (MPI_Send_init/Recv_init) or the
// *Partitioned variants (MPI-4 partitioned communication with Pready)
// and re-arm with Start.
type (
	// SendChannel is a persistent send (MPI_Send_init).
	SendChannel = mpx.PersistentSend
	// RecvChannel is a persistent receive (MPI_Recv_init).
	RecvChannel = mpx.PersistentRecv
)

// Overload protection: end-to-end credit flow control over bounded
// queues with deterministic shedding. Configure via
// RuntimeConfig.UMQCap/PRQCap/StagingCap + Shed + Health; observe via
// Runtime.FlowControl and Runtime.Health.
type (
	// ShedPolicy selects what a bounded staging queue does when full.
	ShedPolicy = mpx.ShedPolicy
	// HealthState is an endpoint's overload condition.
	HealthState = mpx.HealthState
	// HealthConfig tunes the health state machine's occupancy
	// thresholds and hysteresis.
	HealthConfig = mpx.HealthConfig
)

// Shed policies and health states.
const (
	// ShedReject refuses the send with ErrBackpressure.
	ShedReject = mpx.ShedReject
	// ShedDropOldest parks the oldest staged frame for NACK/deadline
	// recovery.
	ShedDropOldest = mpx.ShedDropOldest
	// ShedDropNewest parks the newly staged frame instead.
	ShedDropNewest = mpx.ShedDropNewest

	HealthHealthy    = mpx.Healthy
	HealthCongested  = mpx.Congested
	HealthShedding   = mpx.Shedding
	HealthRecovering = mpx.Recovering
)

// Workload generation for experiments.
type WorkloadConfig = workload.Config

var (
	// GenerateWorkload produces a synthetic matching workload.
	GenerateWorkload = workload.Generate
	// FullyMatchingWorkload is the paper's micro-benchmark workload.
	FullyMatchingWorkload = workload.FullyMatching
	// UniqueTupleWorkload is the Figure 6b hash-friendly workload.
	UniqueTupleWorkload = workload.UniqueTuples
)

// Trace tooling.
type (
	// Trace is a DUMPI-like communication event stream.
	Trace = trace.Trace
	// TraceEvent is one send or posted receive.
	TraceEvent = trace.Event
	// TraceStats is the §IV characterization of a trace.
	TraceStats = trace.Stats
)

var (
	// ParseTrace reads the line-oriented trace format.
	ParseTrace = trace.Parse
	// AnalyzeTrace reconstructs UMQ/PRQ and derives statistics.
	AnalyzeTrace = trace.Analyze
)

// Paper tables, figures and studies as typed rows. cmd/experiments and
// cmd/matchbench render the rest of the report from internal/bench.
var (
	TableI               = bench.TableI
	Figure2              = bench.Figure2
	Figure6a             = bench.Figure6a
	TableII              = bench.TableII
	PrintTableII         = bench.PrintTableII
	AblationCompaction   = bench.AblationCompaction
	AblationFraction     = bench.AblationMatchFraction
	OrderSensitivity     = bench.OrderSensitivity
	AblationWildcardHash = bench.AblationWildcardHash
	HashAblation         = bench.HashAblation
	Applicability        = bench.Applicability
	Streaming            = bench.Streaming
	MessageSizes         = bench.MessageSizes
)
