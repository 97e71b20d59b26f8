package service

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/link"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// TestDaemonChaosSoak is the daemon-level soak the tentpole is held to:
// a daemon over a fault-injected worker fleet serves a scripted mix of
// well-behaved, disconnecting, and hanging clients plus a 4x-capacity
// overload burst. The invariants checked at the end:
//
//   - no deadlock: every job resolves (success, coded rejection, or
//     deliberate client abandonment) and Shutdown drains cleanly;
//   - overload answers are the retryable warp-err:overloaded code, and
//     retrying after the suggested backoff eventually succeeds;
//   - zero goroutine and zero parallelism-token leaks after drain;
//   - every request is accounted for exactly once, whichever of a severed
//     client's disconnect and its job's completion the daemon sees first;
//   - every accepted job's module is word-identical to the sequential
//     compiler's.
//
// Seeded plans (worker and client side) keep the chaos reproducible.
// CI runs this test alone under -race as the daemon smoke step.
func TestDaemonChaosSoak(t *testing.T) {
	noAmbientDiskCache(t)
	baseline := leakcheck.Take()

	// Worker fleet: two chaotic workers (drops, delays) and one clean one,
	// behind the fault-tolerant pool with local fallback enabled.
	workerPlan := wire.Seeded(7, wire.Random{
		DropProb:  0.10,
		DelayProb: 0.20,
		Delay:     2 * time.Millisecond,
	})
	chaos1, addr1, err := chaos.Serve("127.0.0.1:0", 0, workerPlan)
	if err != nil {
		t.Fatal(err)
	}
	defer chaos1.Close()
	chaos2, addr2, err := chaos.Serve("127.0.0.1:0", 0, workerPlan)
	if err != nil {
		t.Fatal(err)
	}
	defer chaos2.Close()
	ln, okAddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	pool, err := cluster.DialPoolWith([]string{addr1, addr2, okAddr}, cluster.PoolOptions{
		CallTimeout: 10 * time.Second,
		DialRetry:   50 * time.Millisecond,
		DialTimeout: time.Second,
		RetryBase:   time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d, err := NewDaemon(Config{
		Backend:      pool,
		MaxActive:    3,
		MaxQueued:    3,
		Tokens:       3,
		WriteTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	addr := l.Addr().String()

	// Job corpus: three distinct small modules with precomputed sequential
	// oracles, so accepted outputs can be checked word-identical.
	sources := [][]byte{
		wgen.SmallFuncsProgram(2),
		wgen.SmallFuncsProgram(3),
		wgen.SmallFuncsProgram(4),
	}
	// Disconnecting clients get their own module so their flights are not
	// kept alive by co-subscribed well-behaved tenants — severing the last
	// subscriber must cancel the job, and the soak asserts it did.
	discoSrc := wgen.SmallFuncsProgram(8)
	oracle := make([]*link.Module, len(sources))
	for i, src := range sources {
		seq, err := compiler.CompileModule("m.w2", src, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = seq.Module
	}

	// submitUntilAccepted retries coded overloaded/draining rejections,
	// honoring the daemon's suggested backoff.
	// submitted counts every compile request a client of any kind sent,
	// retries included; the accounting check after the drain needs it.
	var submitted atomic.Int64
	submitUntilAccepted := func(srcIdx int, clientID string) (*Response, error) {
		for attempt := 0; attempt < 20; attempt++ {
			cl, err := Dial(addr)
			if err != nil {
				return nil, err
			}
			cl.SetIdentity(clientID)
			submitted.Add(1)
			resp, err := cl.Compile(context.Background(), "m.w2", sources[srcIdx], compiler.Options{}, core.ParallelOptions{})
			cl.Close()
			if err == nil {
				return resp, nil
			}
			var re *RemoteError
			if errors.As(err, &re) && cluster.CodeOf(re).Retryable() {
				backoff := re.RetryAfter
				if backoff <= 0 || backoff > 200*time.Millisecond {
					backoff = 10 * time.Millisecond
				}
				time.Sleep(backoff)
				continue
			}
			return nil, err
		}
		return nil, errors.New("job never accepted after 20 attempts")
	}

	// Scripted client mix, seeded for reproducibility.
	clientPlan := chaos.ClientSeeded(11, chaos.ClientRandom{
		DisconnectProb: 0.25,
		Disconnect:     5 * time.Millisecond,
		HangProb:       0.15,
		Hang:           300 * time.Millisecond,
	})
	const (
		tenants    = 5
		jobsPerTen = 5
	)
	var (
		mu        sync.Mutex
		completed int
		abandoned int
		hung      int
	)
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientID := string(rune('A' + g))
			for j := 0; j < jobsPerTen; j++ {
				srcIdx := (g + j) % len(sources)
				switch f := clientPlan.Take(); f.Kind {
				case chaos.ClientDisconnect:
					// A killed build: submit, then sever mid-job. The daemon
					// must cancel this job only and reclaim its resources.
					cl, err := Dial(addr)
					if err != nil {
						t.Error(err)
						continue
					}
					submitted.Add(1)
					go cl.Compile(context.Background(), "m.w2", discoSrc, compiler.Options{}, core.ParallelOptions{})
					time.Sleep(f.D)
					cl.Close()
					mu.Lock()
					abandoned++
					mu.Unlock()
				case chaos.ClientHang:
					// A stopped client: submits but never reads the reply. The
					// daemon's write deadline must free the connection goroutine.
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Error(err)
						continue
					}
					submitted.Add(1)
					gob.NewEncoder(conn).Encode(&Request{
						Op: OpCompile, Client: clientID, File: "m.w2", Source: sources[srcIdx],
					})
					time.Sleep(f.D)
					conn.Close()
					mu.Lock()
					hung++
					mu.Unlock()
				default:
					resp, err := submitUntilAccepted(srcIdx, clientID)
					if err != nil {
						t.Errorf("tenant %s job %d: %v", clientID, j, err)
						continue
					}
					if verr := core.VerifySameOutput(oracle[srcIdx], resp.Module); verr != nil {
						t.Errorf("tenant %s job %d output differs: %v", clientID, j, verr)
					}
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Overload burst: 4x the daemon's total capacity (active+queued) of
	// concurrent one-shot submissions. Each varies the batch threshold so
	// it gets its own flight (dedup would otherwise absorb the herd before
	// admission — itself a designed behavior, tested above). Some must be
	// shed with the coded retryable error; none may hang or fail uncoded,
	// and the accepted ones still produce word-identical modules.
	burst := 4 * (3 + 3)
	burstErrs := make([]error, burst)
	var bwg sync.WaitGroup
	for i := 0; i < burst; i++ {
		i := i
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			cl, err := Dial(addr)
			if err != nil {
				burstErrs[i] = err
				return
			}
			defer cl.Close()
			popts := core.ParallelOptions{BatchThreshold: float64(100 + i)}
			submitted.Add(1)
			resp, err := cl.Compile(context.Background(), "m.w2", sources[i%len(sources)], compiler.Options{}, popts)
			if err == nil {
				burstErrs[i] = core.VerifySameOutput(oracle[i%len(sources)], resp.Module)
				return
			}
			burstErrs[i] = err
		}()
	}
	bwg.Wait()
	shed := 0
	for i, err := range burstErrs {
		if err == nil {
			continue
		}
		if cluster.IsOverloaded(err) {
			var re *RemoteError
			if !errors.As(err, &re) || re.RetryAfter <= 0 {
				t.Errorf("burst job %d shed without a suggested backoff: %v", i, err)
			}
			shed++
			continue
		}
		t.Errorf("burst job %d failed uncoded: %v", i, err)
	}
	if shed == 0 {
		t.Errorf("a %dx-capacity burst shed nothing — admission control absent", 4)
	}

	// Drain. Shutdown's built-in check catches token leaks; the stats and
	// goroutine checks below catch everything else.
	if err := d.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown after soak: %v", err)
	}
	if active, queued := d.admit.Depth(); active != 0 || queued != 0 {
		t.Errorf("admission depth after drain = (%d,%d), want (0,0)", active, queued)
	}
	s := d.snapshotStats()
	t.Logf("soak: %+v; completed=%d abandoned=%d hung=%d shed-in-burst=%d worker-faults=%d",
		*s, completed, abandoned, hung, shed, workerPlan.Calls())
	if completed == 0 {
		t.Error("no well-behaved job completed")
	}
	// Whether a severed client's job is cancelled or finishes first is the
	// scheduler's choice, so the soak asserts the accounting instead: every
	// request the daemon saw is counted exactly once — as a flight's one
	// outcome, as coalesced onto a flight, or as refused — and every accepted
	// job reached an outcome. A client that severs its connection may do so
	// before the daemon has read the request, so only those may go unseen.
	outcomes := s.JobsCompleted + s.JobsCancelled + s.JobsFailed
	if s.JobsAccepted > outcomes {
		t.Errorf("%d jobs accepted, only %d completed, cancelled or failed", s.JobsAccepted, outcomes)
	}
	seen := outcomes + s.JobsShed + s.JobsCoalesced + s.JobsDrainRefused
	sent := submitted.Load()
	if severed := int64(abandoned + hung); seen > sent || seen < sent-severed {
		t.Errorf("daemon accounts for %d requests, clients sent %d of which %d were severed: a job was counted twice or lost",
			seen, sent, severed)
	}
	if s.Tokens.Outstanding != 0 {
		t.Errorf("%d tokens outstanding after drain", s.Tokens.Outstanding)
	}
	if workerPlan.Calls() == 0 {
		t.Error("worker chaos plan saw no calls")
	}

	// Goroutine-leak check: after the daemon, pool, and workers are all
	// down, nothing started since the baseline may still be running.
	chaos1.Close()
	chaos2.Close()
	ln.Close()
	pool.Close()
	baseline.Check(t)
}
