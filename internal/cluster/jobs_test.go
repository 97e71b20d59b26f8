package cluster

// Tests for the worker's concurrent-compile bound (warpworker -jobs):
// net/rpc spawns one goroutine per pending request, so the jobs semaphore
// is the only thing standing between a burst of batch RPCs and an
// oversubscribed machine.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wgen"
)

func TestWorkerDefaultsToOneJob(t *testing.T) {
	if j := NewWorker(0).Jobs(); j != 1 {
		t.Errorf("NewWorker jobs = %d, want 1 (the paper's single-CPU workstation)", j)
	}
	if j := NewWorkerJobs(0, -3).Jobs(); j != 1 {
		t.Errorf("NewWorkerJobs(-3) jobs = %d, want 1", j)
	}
	if j := NewWorkerJobs(0, 4).Jobs(); j != 4 {
		t.Errorf("NewWorkerJobs(4) jobs = %d, want 4", j)
	}
}

// TestWorkerJobsQueueNotInterleave drives N+1 concurrent compiles into a
// worker bounded at N jobs and checks the N+1th queued instead of running
// alongside the others: the concurrency high-water mark never exceeds N,
// yet every compile completes.
func TestWorkerJobsQueueNotInterleave(t *testing.T) {
	// A fresh worker cache without an ambient disk tier: every request
	// names a different function, so every request really compiles.
	t.Setenv(fcache.EnvCacheDir, "")
	const jobs = 2
	w := NewWorkerJobs(0, jobs)
	src := wgen.SyntheticProgram(wgen.Small, jobs+1)

	var wg sync.WaitGroup
	errs := make([]error, jobs+1)
	for i := 0; i < jobs+1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply BatchReply
			errs[i] = w.CompileBatch(core.BatchRequest{
				File: "m.w2", Source: src, Items: []core.BatchItem{{Section: 1, Index: i}},
			}, &reply)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	if pk := w.PeakConcurrent(); pk > jobs {
		t.Errorf("peak concurrency = %d, want <= %d: the jobs bound leaked", pk, jobs)
	}
}

// TestWorkerJobsBlockUntilSlotFree pins the queueing behavior down
// deterministically: with every slot held, a new compile must not start
// until a slot is released.
func TestWorkerJobsBlockUntilSlotFree(t *testing.T) {
	t.Setenv(fcache.EnvCacheDir, "")
	w := NewWorkerJobs(0, 1)
	release := w.acquireSlot() // occupy the only slot

	src := wgen.SyntheticProgram(wgen.Tiny, 1)
	done := make(chan error, 1)
	go func() {
		var reply BatchReply
		done <- w.CompileBatch(core.BatchRequest{File: "m.w2", Source: src, Items: []core.BatchItem{{Section: 1, Index: 0}}}, &reply)
	}()

	select {
	case err := <-done:
		t.Fatalf("compile ran while every job slot was held (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Still queued: the bound holds.
	}

	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued compile failed after slot freed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued compile never ran after slot freed")
	}
	if pk := w.PeakConcurrent(); pk != 1 {
		t.Errorf("peak concurrency = %d, want 1", pk)
	}
}

// TestMissingSourceAnsweredWhileSlotHeld: only compiling takes a slot. With
// the one slot of a -jobs 1 worker held, a hash-only request for a source
// the worker has never seen is still answered missing-source at once,
// instead of queueing behind the running compile just to ask for the
// source.
func TestMissingSourceAnsweredWhileSlotHeld(t *testing.T) {
	t.Setenv(fcache.EnvCacheDir, "")
	w := NewWorkerJobs(0, 1)
	release := w.acquireSlot() // a compile is running
	defer release()

	src := wgen.SyntheticProgram(wgen.Tiny, 1)
	done := make(chan error, 1)
	go func() {
		var reply BatchReply
		done <- w.CompileBatch(core.BatchRequest{
			File: "m.w2", SourceHash: fcache.HashSource(src),
			Items: []core.BatchItem{{Section: 1, Index: 0}},
		}, &reply)
	}()
	select {
	case err := <-done:
		if CodeOf(err) != CodeMissingSource {
			t.Fatalf("hash-only request answered %v, want %s", err, CodeMissingSource)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hash-only request queued behind the held compile slot")
	}
}
