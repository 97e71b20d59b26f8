// Command warpworker is a compile worker ("workstation daemon"): it serves
// function-compilation requests from warpcc -mode rpc over net/rpc. At most
// -jobs compiles run concurrently (default: the machine's CPU count); the
// rest queue FCFS, so a burst of batch RPCs cannot oversubscribe the host —
// net/rpc otherwise spawns an unbounded goroutine per request. -jobs 1
// reproduces the single-CPU SUN workstations of the measured system. It
// keeps a per-process content-addressed artifact cache (-cache-mb MiB, 0 =
// the default budget) so repeated requests against the same module source
// skip parsing, checking, and lowering, and masters can send a 32-byte hash
// instead of the whole source. The cache cannot be turned off.
//
// Workers started over one shared -cache-dir reuse each other's finished
// objects: a cold restart over a warm directory answers from disk instead
// of recompiling the world.
//
// On SIGINT/SIGTERM the worker shuts down gracefully: it stops accepting
// connections, refuses new compiles (clients fail over to other workers),
// drains in-flight compiles for up to the grace period, then exits 0 — so
// an operator restart never surfaces as a raw connection reset mid-reply.
//
// Usage:
//
//	warpworker [-addr host:port] [-jobs N] [-cache-mb N] [-cache-dir DIR] [-grace D]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent compiles; excess requests queue (1 = the paper's single-CPU workstation)")
	cacheMB := flag.Int64("cache-mb", 0, "artifact cache budget in MiB (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persistent object cache directory (survives restarts; overrides WARP_CACHE_DIR)")
	grace := flag.Duration("grace", 10*time.Second, "drain period for in-flight compiles on SIGINT/SIGTERM")
	flag.Parse()
	if *cacheMB < 0 {
		fmt.Fprintf(os.Stderr, "warpworker: -cache-mb %d: the cache budget cannot be negative (the cache cannot be disabled)\n", *cacheMB)
		flag.Usage()
		os.Exit(2)
	}

	srv, err := cluster.NewWorkerServerJobs(*addr, *cacheMB<<20, *cacheDir, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "warpworker:", err)
		os.Exit(1)
	}
	fmt.Printf("warpworker: serving compile requests on %s (%d concurrent jobs)\n", srv.Addr(), *jobs)

	// Serve until asked to stop, then drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("warpworker: %v: draining in-flight compiles (grace %v)\n", s, *grace)
	if err := srv.Shutdown(*grace); err != nil {
		fmt.Fprintln(os.Stderr, "warpworker: shutdown:", err)
	}
	fmt.Println("warpworker: stopped")
}
