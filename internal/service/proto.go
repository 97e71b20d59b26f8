// Package service implements warpd, the multi-tenant compile daemon: a
// long-running process that accepts many concurrent compile jobs over a
// Unix or TCP socket and multiplexes them onto one shared worker pool
// (internal/cluster) and one shared artifact cache (internal/fcache).
//
// The design goal is graceful degradation, in the same spirit as the
// dispatch layer below it (DESIGN.md §8):
//
//   - Admission control: a bounded job queue with fair-share (round-robin
//     per client) scheduling. When the queue is full, new jobs are shed
//     with a structured, retryable warp-err:overloaded error carrying a
//     suggested backoff — the daemon never queues unboundedly.
//   - Per-job cancellation: each job runs under its own context; a client
//     disconnecting (or cancelling) severs exactly its own slice of the
//     worker fleet, without perturbing co-tenant jobs.
//   - One dispatch queue: every job's units join the daemon-lifetime
//     fleet's single queue, and a free slot takes the front-most unit of
//     the tenant served least so far, so a huge build cannot starve a
//     co-tenant's small one.
//   - Jobserver-style tokens: a fixed bucket of parallelism tokens bounds
//     total daemon concurrency. Every running job holds one; wire clients
//     may borrow tokens too (to coordinate their own build parallelism,
//     as with GCC's -fparallel-jobs=jobserver). Tokens are reclaimed when
//     a job ends for any reason — completion, cancellation, crash of the
//     owning connection — so chaos cannot leak them.
//   - Graceful drain: SIGTERM finishes accepted jobs, refuses new ones
//     with warp-err:draining, and verifies zero outstanding tokens. A
//     restarted daemon over a warm cache directory serves repeat jobs
//     from the object tier without recompiling anything.
//   - Cross-job dedup: identical submissions (same source bytes, same
//     options) coalesce singleflight-style; a thundering herd compiles
//     once and every caller receives the winner's word-identical output.
//
// The wire protocol is a sequence of gob-encoded Request/Response pairs
// over one connection (gob frames itself, so no extra length prefix is
// needed). A client sends one request and reads one response before
// sending the next; closing the connection cancels the client's in-flight
// and queued work and returns any tokens the connection holds. Errors
// travel as warp-err:<code> message strings, the same structured-error
// convention as the RPC worker protocol, so cluster.CodeOf classifies
// them on either side of the wire.
package service

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/iodriver"
	"repro/internal/link"
)

// The daemon reuses the cluster's structured error codes so one
// classification scheme spans worker RPCs and the service wire.
const (
	codeOverloaded = cluster.CodeOverloaded
	codeDraining   = cluster.CodeDraining
	codeCompile    = cluster.CodeCompile
	codeBadRequest = cluster.CodeBadRequest
)

// Op names a request kind on the daemon wire.
type Op string

const (
	// OpCompile submits one module for compilation and waits for the
	// linked result (or a coded refusal).
	OpCompile Op = "compile"
	// OpAcquire borrows n parallelism tokens from the daemon's bucket.
	// Tokens are held by the connection and reclaimed when it closes.
	OpAcquire Op = "token-acquire"
	// OpRelease returns n previously borrowed tokens.
	OpRelease Op = "token-release"
	// OpStats asks for the daemon's service counters.
	OpStats Op = "stats"
	// OpPing checks liveness; a draining daemon answers with a coded
	// draining error so load balancers stop routing to it.
	OpPing Op = "ping"
)

// Request is one client message. Exactly one op's field group is used.
type Request struct {
	Op Op
	// Client is the fair-share scheduling identity. Empty means the
	// connection's remote address: one process, one share. Identity is
	// cooperative — the daemon serves trusted build clients, not the
	// open internet.
	Client string

	// Compile fields.
	File   string
	Source []byte
	Opts   compiler.Options
	POpts  core.ParallelOptions

	// Token fields: how many tokens to acquire or release.
	N int
}

// FuncSummary is the per-function stats row of a compile response — what
// warpcc -stats prints. Objects stay in the daemon; the linked module is
// the product.
type FuncSummary struct {
	Name    string
	Section int
	Lines   int
	CPUTime time.Duration
}

// Response is one daemon message, answering the request of the same
// position in the conversation.
type Response struct {
	// Err carries a failure as a warp-err:<code>-prefixed message ("" on
	// success); cluster.CodeOf recovers the classification. Compile errors
	// (bad source) are coded compile; admission shedding is coded
	// overloaded; a shutting-down daemon answers coded draining.
	Err string
	// RetryAfter is the daemon's suggested backoff before retrying a
	// shed or drain-refused job (zero otherwise). It scales with the
	// current queue depth and the observed service time.
	RetryAfter time.Duration

	// Compile result fields.
	ModuleName string
	Module     *link.Module
	Driver     *iodriver.Driver
	Funcs      []FuncSummary
	Warnings   []string
	// Stats is the job's parallel-compilation breakdown with the shared
	// backend's cumulative counters scoped to this job's interval.
	Stats *core.ParallelStats
	// Coalesced reports that this response was produced by another,
	// identical in-flight job (cross-job dedup): the output is the
	// winner's, word-identical to what a private compile would produce.
	Coalesced bool

	// Token fields: tokens granted by this op / held by this connection.
	Granted int
	Held    int

	// Daemon service counters (OpStats).
	Daemon *DaemonStats
}

// DaemonStats are the service-level counters, cumulative since daemon
// start. They complement (not duplicate) the backend's cache and fault
// counters, which travel per job inside Response.Stats.
type DaemonStats struct {
	// JobsAccepted counts compile jobs admitted past admission control
	// (including ones later cancelled or failed); JobsCompleted the ones
	// that produced a module; JobsFailed the ones whose compile errored;
	// JobsCancelled the ones severed by client disconnect or deadline.
	JobsAccepted  int64
	JobsCompleted int64
	JobsFailed    int64
	JobsCancelled int64
	// JobsShed counts jobs rejected with warp-err:overloaded at
	// admission; JobsDrainRefused the ones refused because the daemon was
	// draining.
	JobsShed         int64
	JobsDrainRefused int64
	// JobsCoalesced counts submissions answered by an identical in-flight
	// job instead of compiling again (cross-job dedup).
	JobsCoalesced int64
	// ActiveJobs and QueuedJobs are gauges of the admission state at the
	// time of the snapshot.
	ActiveJobs int64
	QueuedJobs int64
	// Tokens reports the parallelism bucket.
	Tokens TokenStats
	// Clients is the number of currently connected clients.
	Clients int64
	// FleetCrossBuildSteals is always zero: the shared fleet is one queue
	// and never steals. It is kept only because cmd/warpbench reads it.
	FleetCrossBuildSteals int64
}

// errResponse builds a coded failure response.
func errResponse(err error, retryAfter time.Duration) *Response {
	return &Response{Err: err.Error(), RetryAfter: retryAfter}
}

// Errf builds a service error whose classification survives the wire (it
// is cluster.Errf; re-exported so callers of this package need not import
// the cluster for error construction).
func Errf(code cluster.Code, format string, args ...any) error {
	return cluster.Errf(code, format, args...)
}
