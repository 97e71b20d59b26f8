package service

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wgen"
)

// noAmbientDiskCache clears WARP_CACHE_DIR so daemon tests that assert
// cold-cache behavior (recompiles happen, dedup coalesces real work) are
// not answered from a CI-shared disk tier. Must run before any pool is
// created.
func noAmbientDiskCache(t *testing.T) {
	t.Helper()
	t.Setenv(fcache.EnvCacheDir, "")
}

// startDaemon builds a daemon over cfg (Backend defaults to a 4-worker
// local pool) and serves it on a loopback TCP listener. Shutdown runs in
// cleanup and its token-leak check is asserted.
func startDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = cluster.NewLocalPool(4)
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	t.Cleanup(func() {
		if err := d.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d, l.Addr().String()
}

// dialT connects a client and closes it in cleanup.
func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// gatedBackend wraps a backend so its calls block until the test releases
// them — pinning jobs "in flight" deterministically. Wrapping hides the
// pool's optional stats interfaces, which only narrows the paths under
// test.
type gatedBackend struct {
	core.Backend
	release chan struct{}
	started chan struct{}
	once    sync.Once
}

func newGatedBackend(inner core.Backend) *gatedBackend {
	return &gatedBackend{
		Backend: inner,
		release: make(chan struct{}),
		started: make(chan struct{}),
	}
}

func (g *gatedBackend) CompileBatch(ctx context.Context, req core.BatchRequest) ([]*core.CompileReply, error) {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Backend.CompileBatch(ctx, req)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonCompileMatchesSequential: a job submitted over the wire
// produces a module word-identical to the in-process sequential compiler,
// with per-function summaries and job-scoped stats attached.
func TestDaemonCompileMatchesSequential(t *testing.T) {
	noAmbientDiskCache(t)
	_, addr := startDaemon(t, Config{})
	cl := dialT(t, addr)

	src := wgen.UserProgram()
	resp, err := cl.Compile(context.Background(), "user.w2", src, compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := compiler.CompileModule("user.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(seq.Module, resp.Module); err != nil {
		t.Fatalf("daemon output differs from sequential: %v", err)
	}
	if len(resp.Funcs) != len(seq.Funcs) {
		t.Errorf("daemon reported %d functions, sequential compiled %d", len(resp.Funcs), len(seq.Funcs))
	}
	if resp.Stats == nil || resp.Stats.Workers == 0 {
		t.Errorf("job stats missing or empty: %+v", resp.Stats)
	}
	if resp.Driver == nil {
		t.Error("response missing the I/O driver")
	}
}

// TestDaemonPerJobStatsScoped: two sequential jobs over one shared
// backend each report their own cache activity, not the backend's
// lifetime totals — the second (identical) job sees hits, and its counters
// don't include the first job's misses.
func TestDaemonPerJobStatsScoped(t *testing.T) {
	noAmbientDiskCache(t)
	_, addr := startDaemon(t, Config{})
	cl := dialT(t, addr)

	src := wgen.UserProgram()
	first, err := cl.Compile(context.Background(), "user.w2", src, compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Compile(context.Background(), "user.w2", src, compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cache.ObjectMisses == 0 {
		t.Errorf("cold job reports no object misses: %+v", first.Stats.Cache)
	}
	if second.Stats.Cache.ObjectMisses >= first.Stats.Cache.ObjectMisses {
		t.Errorf("warm job's scoped misses (%d) not below cold job's (%d) — stats not scoped per job",
			second.Stats.Cache.ObjectMisses, first.Stats.Cache.ObjectMisses)
	}
}

// TestDaemonDedupThunderingHerd: eight identical concurrent submissions
// compile once; seven coalesce and all eight receive word-identical
// modules.
func TestDaemonDedupThunderingHerd(t *testing.T) {
	noAmbientDiskCache(t)
	gate := newGatedBackend(cluster.NewLocalPool(4))
	d, addr := startDaemon(t, Config{Backend: gate})

	const herd = 8
	src := wgen.UserProgram()
	var wg sync.WaitGroup
	responses := make([]*Response, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		i := i
		cl := dialT(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = cl.Compile(context.Background(), "user.w2", src, compiler.Options{}, core.ParallelOptions{})
		}()
	}
	<-gate.started
	waitFor(t, "followers to coalesce", func() bool {
		return d.snapshotStats().JobsCoalesced == herd-1
	})
	close(gate.release)
	wg.Wait()

	coalesced := 0
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if responses[i].Coalesced {
			coalesced++
		}
		if err := core.VerifySameOutput(responses[0].Module, responses[i].Module); err != nil {
			t.Fatalf("job %d output differs: %v", i, err)
		}
	}
	if coalesced != herd-1 {
		t.Errorf("%d responses marked coalesced, want %d", coalesced, herd-1)
	}
	s := d.snapshotStats()
	if s.JobsAccepted != 1 || s.JobsCompleted != 1 {
		t.Errorf("accepted=%d completed=%d, want 1/1 — the herd compiled more than once", s.JobsAccepted, s.JobsCompleted)
	}
}

// TestDaemonOverloadShed: with one job running and one queue slot taken, a
// third submission is shed with the retryable overloaded code and a
// positive suggested backoff; the queued jobs still finish.
func TestDaemonOverloadShed(t *testing.T) {
	noAmbientDiskCache(t)
	gate := newGatedBackend(cluster.NewLocalPool(2))
	d, addr := startDaemon(t, Config{Backend: gate, MaxActive: 1, MaxQueued: 1})

	sources := [][]byte{
		wgen.SmallFuncsProgram(2),
		wgen.SmallFuncsProgram(3),
		wgen.SmallFuncsProgram(4),
	}
	type result struct {
		resp *Response
		err  error
	}
	results := make([]chan result, 2)
	for i := 0; i < 2; i++ {
		i := i
		results[i] = make(chan result, 1)
		cl := dialT(t, addr)
		go func() {
			resp, err := cl.Compile(context.Background(), "m.w2", sources[i], compiler.Options{}, core.ParallelOptions{})
			results[i] <- result{resp, err}
		}()
		if i == 0 {
			<-gate.started
		} else {
			waitFor(t, "job 1 to queue", func() bool {
				_, queued := d.admit.Depth()
				return queued == 1
			})
		}
	}

	_, err := dialT(t, addr).Compile(context.Background(), "m.w2", sources[2], compiler.Options{}, core.ParallelOptions{})
	if err == nil {
		t.Fatal("burst job past a full queue succeeded, want overloaded shed")
	}
	if !cluster.IsOverloaded(err) {
		t.Fatalf("shed error = %v, want code overloaded", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Errorf("shed reply carries no suggested backoff: %v", err)
	}

	close(gate.release)
	for i := 0; i < 2; i++ {
		r := <-results[i]
		if r.err != nil {
			t.Fatalf("accepted job %d failed: %v", i, r.err)
		}
	}
	if s := d.snapshotStats(); s.JobsShed != 1 || s.JobsCompleted != 2 {
		t.Errorf("shed=%d completed=%d, want 1/2", s.JobsShed, s.JobsCompleted)
	}
}

// TestDaemonDisconnectCancelsJob: a client vanishing mid-compile severs
// exactly its own job — the slot, token, and flight are all reclaimed and
// an unrelated co-tenant job runs to completion untouched.
func TestDaemonDisconnectCancelsJob(t *testing.T) {
	noAmbientDiskCache(t)
	gate := newGatedBackend(cluster.NewLocalPool(2))
	d, addr := startDaemon(t, Config{Backend: gate, MaxActive: 2})

	doomed, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	go doomed.Compile(context.Background(), "m.w2", wgen.SmallFuncsProgram(3), compiler.Options{}, core.ParallelOptions{})
	<-gate.started
	doomed.Close()

	waitFor(t, "disconnected job to be cancelled", func() bool {
		return d.snapshotStats().JobsCancelled == 1
	})
	waitFor(t, "cancelled job's slot and token to be reclaimed", func() bool {
		active, queued := d.admit.Depth()
		return active == 0 && queued == 0 && d.tokens.Outstanding() == 0
	})

	// A survivor job on the same daemon still completes.
	close(gate.release)
	cl := dialT(t, addr)
	if _, err := cl.Compile(context.Background(), "m.w2", wgen.SmallFuncsProgram(2), compiler.Options{}, core.ParallelOptions{}); err != nil {
		t.Fatalf("co-tenant job after a disconnect: %v", err)
	}
}

// TestDaemonDrain: Shutdown finishes the accepted job, refuses a new one
// with the coded draining error, and verifies no token leaked.
func TestDaemonDrain(t *testing.T) {
	noAmbientDiskCache(t)
	gate := newGatedBackend(cluster.NewLocalPool(2))
	cfg := Config{Backend: gate, MaxActive: 2}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)

	accepted := dialT(t, l.Addr().String())
	late := dialT(t, l.Addr().String()) // dialed before drain, submits after
	acceptedRes := make(chan error, 1)
	go func() {
		_, err := accepted.Compile(context.Background(), "m.w2", wgen.SmallFuncsProgram(2), compiler.Options{}, core.ParallelOptions{})
		acceptedRes <- err
	}()
	<-gate.started
	// The late connection must be accepted before the drain closes the
	// listener: one still in the kernel's accept queue is reset, not refused.
	waitFor(t, "daemon to accept both clients", func() bool { return d.snapshotStats().Clients == 2 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- d.Shutdown(10 * time.Second) }()
	waitFor(t, "daemon to enter draining", d.isDraining)

	_, lateErr := late.Compile(context.Background(), "m.w2", wgen.SmallFuncsProgram(3), compiler.Options{}, core.ParallelOptions{})
	if lateErr == nil {
		t.Fatal("job submitted during drain succeeded, want coded refusal")
	}
	if !cluster.IsDraining(lateErr) {
		t.Fatalf("drain refusal = %v, want code draining", lateErr)
	}

	close(gate.release)
	if err := <-acceptedRes; err != nil {
		t.Fatalf("accepted job did not survive the drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s := d.snapshotStats(); s.JobsDrainRefused == 0 || s.JobsCompleted != 1 {
		t.Errorf("drain-refused=%d completed=%d, want >=1 and 1", s.JobsDrainRefused, s.JobsCompleted)
	}
}

// TestDaemonWarmRestart: a daemon restarted over the same cache directory
// serves a repeat job entirely from the persistent object tier — zero
// recompiled functions — and produces the identical module.
func TestDaemonWarmRestart(t *testing.T) {
	noAmbientDiskCache(t)
	dir := t.TempDir()
	src := wgen.UserProgram()

	boot := func() (*Response, error) {
		pool := cluster.NewLocalPool(4)
		if err := pool.Cache().AttachDisk(dir, 0); err != nil {
			t.Fatal(err)
		}
		d, err := NewDaemon(Config{Backend: pool})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go d.Serve(l)
		defer func() {
			if err := d.Shutdown(5 * time.Second); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		cl, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		return cl.Compile(context.Background(), "user.w2", src, compiler.Options{}, core.ParallelOptions{})
	}

	cold, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Dispatch.RecompiledFuncs == 0 {
		t.Fatalf("cold daemon recompiled nothing — cache dir %s not cold?", dir)
	}
	warm, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Stats.Dispatch.RecompiledFuncs; n != 0 {
		t.Errorf("restarted daemon recompiled %d function(s), want 0 (warm object tier)", n)
	}
	if err := core.VerifySameOutput(cold.Module, warm.Module); err != nil {
		t.Errorf("warm restart output differs: %v", err)
	}
}

// TestDaemonTokenOps: wire clients can borrow and return parallelism
// tokens, and a dead connection's tokens are reclaimed, not leaked.
func TestDaemonTokenOps(t *testing.T) {
	noAmbientDiskCache(t)
	d, addr := startDaemon(t, Config{Tokens: 4})

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	held, err := cl.Acquire(context.Background(), 2)
	if err != nil || held != 2 {
		t.Fatalf("Acquire(2) = %d, %v; want 2 held", held, err)
	}
	if got := d.tokens.Outstanding(); got != 2 {
		t.Errorf("outstanding = %d after borrow, want 2", got)
	}
	held, err = cl.Release(context.Background(), 1)
	if err != nil || held != 1 {
		t.Fatalf("Release(1) = %d, %v; want 1 held", held, err)
	}
	if _, err := cl.Release(context.Background(), 5); err == nil {
		t.Error("over-release succeeded, want bad-request")
	} else if cluster.CodeOf(err) != cluster.CodeBadRequest {
		t.Errorf("over-release error = %v, want code bad-request", err)
	}
	cl.Close()
	waitFor(t, "dead connection's token to be reclaimed", func() bool {
		return d.tokens.Outstanding() == 0
	})
	if s := d.tokens.Stats(); s.Reclaimed != 1 {
		t.Errorf("reclaimed = %d, want 1", s.Reclaimed)
	}
}

// TestDaemonUnixSocket: the daemon serves over a Unix socket and the
// client's unix: address form reaches it.
func TestDaemonUnixSocket(t *testing.T) {
	noAmbientDiskCache(t)
	dir, err := os.MkdirTemp("", "warpd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "d.sock")

	d, err := NewDaemon(Config{Backend: cluster.NewLocalPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	t.Cleanup(func() {
		if err := d.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	cl := dialT(t, "unix:"+sock)
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping over unix socket: %v", err)
	}
	resp, err := cl.Compile(context.Background(), "m.w2", wgen.SmallFuncsProgram(2), compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Module == nil {
		t.Fatal("compile over unix socket returned no module")
	}
}

// TestDaemonStealStatsInJobSnapshot: the fleet stats (shared fleet,
// per-slot idle) travel the wire inside each job's stats snapshot.
func TestDaemonStealStatsInJobSnapshot(t *testing.T) {
	noAmbientDiskCache(t)
	_, addr := startDaemon(t, Config{})
	cl := dialT(t, addr)

	resp, err := cl.Compile(context.Background(), "skew.w2", wgen.SkewedProgram(3, 5),
		compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || !resp.Stats.Steal.Shared {
		t.Fatalf("job snapshot must report dispatch through the shared fleet: %+v", resp.Stats)
	}
	if len(resp.Stats.Steal.IdleTime) == 0 {
		t.Error("per-slot idle decomposition missing from the job snapshot")
	}
}
