package cluster

import (
	"errors"
	"fmt"
	"net/rpc"
	"strings"

	"repro/internal/wire"
)

// Code classifies an error produced by worker code. net/rpc flattens server
// errors to bare strings (rpc.ServerError), so the classification is encoded
// as a "warp-err:<code>: " prefix on the message and decoded with CodeOf on
// the client side — structured where a substring match used to be. The code
// decides how the dispatch layer reacts: the cache-protocol code triggers a
// re-send with the source, retryable codes trigger failover to another
// worker, and everything else is a deterministic outcome not worth retrying.
type Code string

const (
	// CodeMissingSource: a hash-only request named a source the worker does
	// not hold (evicted or never sent). Cache protocol: re-send the request
	// with its source to the same worker.
	CodeMissingSource Code = "missing-source"
	// CodeBadRequest: the request itself is malformed (e.g. a source whose
	// content does not match its claimed hash). Fatal.
	CodeBadRequest Code = "bad-request"
	// CodeCompile: the compiler rejected the source (front-end errors, bad
	// section/function index). Deterministic — every worker would answer the
	// same — so never retried.
	CodeCompile Code = "compile"
	// CodeUnavailable: the worker is alive but will not serve this request
	// (draining for shutdown, chaos-injected unavailability). The request is
	// idempotent, so another worker may succeed: retryable.
	CodeUnavailable Code = "unavailable"
	// CodeOverloaded: the compile service's bounded job queue is full and the
	// job was shed at admission instead of queueing unboundedly. The reply
	// carries a suggested backoff; retrying after it may succeed.
	CodeOverloaded Code = "overloaded"
	// CodeDraining: the compile service received SIGTERM and refuses new
	// jobs while finishing accepted ones. Retryable — against the restarted
	// daemon, or another instance.
	CodeDraining Code = "draining"
)

// codePrefix marks coded errors on the wire.
const codePrefix = "warp-err:"

// Errf builds an error whose classification survives the net/rpc boundary's
// string flattening (and any other transport that keeps the message text,
// such as the compile service's wire protocol).
func Errf(code Code, format string, args ...any) error {
	return fmt.Errorf("%s%s: %s", codePrefix, code, fmt.Sprintf(format, args...))
}

// codeErr is the package-internal alias kept for brevity.
func codeErr(code Code, format string, args ...any) error {
	return Errf(code, format, args...)
}

// CodeOf extracts the code from an error that crossed (or will cross) the
// RPC boundary. It returns "" for nil, uncoded, and transport errors.
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	s := err.Error()
	if !strings.HasPrefix(s, codePrefix) {
		return ""
	}
	s = s[len(codePrefix):]
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return ""
	}
	return Code(s[:i])
}

// Retryable reports whether a failure with this code may succeed on a
// different worker — or, for service-level codes, on a later attempt.
func (c Code) Retryable() bool {
	return c == CodeUnavailable || c == CodeOverloaded || c == CodeDraining
}

// IsOverloaded reports whether err is a compile service's admission-control
// rejection.
func IsOverloaded(err error) bool { return CodeOf(err) == CodeOverloaded }

// IsDraining reports whether err is a compile service's shutting-down
// refusal.
func IsDraining(err error) bool { return CodeOf(err) == CodeDraining }

// IsMissingSource reports whether err is a worker's source-not-resident
// error.
func IsMissingSource(err error) bool { return CodeOf(err) == CodeMissingSource }

// ErrDeadline marks a call abandoned because its per-call deadline expired;
// the connection is severed so the in-flight handler cannot complete later
// and double-apply. It is the transport's one deadline error.
var ErrDeadline = wire.ErrDeadline

// transient reports whether err is worth retrying on another worker: call
// deadlines, severed connections, and every transport-level failure are; a
// deterministic answer from worker code is not, unless its code says so.
func transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadline) || errors.Is(err, rpc.ErrShutdown) {
		return true
	}
	if c := CodeOf(err); c != "" {
		return c.Retryable()
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		// The worker executed the request and answered with an uncoded
		// error: deterministic, don't retry.
		return false
	}
	// Everything else is transport-level: dial failures, connection resets,
	// unexpected EOF mid-reply.
	return true
}
