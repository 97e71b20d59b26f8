// Command warpd is the multi-tenant compile daemon: a long-running
// process serving concurrent compile jobs from many warpcc clients over
// one shared worker pool and one shared artifact cache. Jobs pass
// admission control (bounded queue, fair-share round-robin per client,
// overload shedding with a suggested backoff), hold a jobserver-style
// parallelism token while running, and are cancelled the moment their
// client disconnects. Identical concurrent submissions coalesce and
// compile once.
//
// Concurrent jobs dispatch through one daemon-lifetime queue: a slot left
// idle by one build's straggler tail serves another build's queued units,
// and a free slot takes the front-most unit of the least-served tenant so
// a huge build cannot starve a small one.
//
// Daemons and workers share finished objects through one -cache-dir: a
// second daemon started over a warm directory serves its first jobs from
// disk instead of recompiling.
//
// On SIGINT/SIGTERM the daemon drains: it finishes accepted jobs,
// refuses new ones with warp-err:draining, verifies no parallelism token
// leaked, and exits 0. Restarted over the same -cache-dir it serves
// repeat jobs from the warm object tier without recompiling anything.
//
// Usage:
//
//	warpd -listen unix:/tmp/warpd.sock [-j N | -workers host:port,...]
//	      [-cache-dir DIR]
//	      [-max-active N] [-max-queued N] [-tokens N]
//	      [-job-timeout D] [-grace D]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
)

func main() {
	var (
		listen    = flag.String("listen", "unix:/tmp/warpd.sock", "listen address: unix:/path or TCP host:port")
		jobs      = flag.Int("j", runtime.NumCPU(), "in-process worker count (ignored with -workers)")
		workers   = flag.String("workers", "", "comma-separated remote worker addresses (rpc backend)")
		cacheDir  = flag.String("cache-dir", "", "persistent shared object cache directory (overrides WARP_CACHE_DIR)")
		maxActive = flag.Int("max-active", 0, "max concurrently running jobs (0 = worker count)")
		maxQueued = flag.Int("max-queued", -1, "max jobs waiting at admission before shedding (-1 = 4x max-active)")
		tokens    = flag.Int("tokens", 0, "parallelism token bucket capacity (0 = max-active)")
		jobTO     = flag.Duration("job-timeout", 0, "per-job deadline measured from admission (0 = none)")
		grace     = flag.Duration("grace", 30*time.Second, "drain period for accepted jobs on SIGINT/SIGTERM")

		callTimeout = flag.Duration("call-timeout", 30*time.Second, "per-RPC deadline for remote workers (0 disables)")
		maxRetries  = flag.Int("max-retries", 3, "max failover attempts per request for remote workers (0 disables)")
		dialRetry   = flag.Duration("dial-retry", 500*time.Millisecond, "probe period for readmitting quarantined workers (0 disables)")
	)
	flag.Parse()

	var backend core.Backend
	if *workers != "" {
		popts := cluster.FlagPoolOptions(*callTimeout, *maxRetries, *dialRetry)
		popts.CacheDir = *cacheDir
		pool, err := cluster.DialPoolWith(strings.Split(*workers, ","), popts)
		if err != nil {
			fatal(err)
		}
		defer pool.Close()
		if pool.Healthy() < pool.Workers() {
			fmt.Fprintf(os.Stderr, "warpd: degraded start: %d/%d workers reachable\n",
				pool.Healthy(), pool.Workers())
		}
		backend = pool
	} else {
		pool := cluster.NewLocalPool(*jobs)
		if *cacheDir != "" {
			if err := pool.Cache().AttachDisk(*cacheDir, 0); err != nil {
				fatal(fmt.Errorf("opening -cache-dir %s: %w", *cacheDir, err))
			}
		}
		backend = pool
	}
	d, err := service.NewDaemon(service.Config{
		Backend:    backend,
		MaxActive:  *maxActive,
		MaxQueued:  *maxQueued,
		Tokens:     *tokens,
		JobTimeout: *jobTO,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	network, target := "tcp", *listen
	if rest, ok := strings.CutPrefix(*listen, "unix:"); ok {
		network, target = "unix", rest
		// A stale socket from a crashed daemon blocks rebinding; the warm
		// cache directory, not the socket, carries the state that matters.
		os.Remove(target)
	} else if strings.Contains(*listen, "/") {
		network, target = "unix", *listen
		os.Remove(target)
	}
	l, err := net.Listen(network, target)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("warpd: serving compile jobs on %s (%d workers)\n", l.Addr(), backend.Workers())

	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("warpd: %v: draining accepted jobs (grace %v)\n", s, *grace)
		if err := d.Shutdown(*grace); err != nil {
			fmt.Fprintln(os.Stderr, "warpd: shutdown:", err)
			os.Exit(1)
		}
		if network == "unix" {
			os.Remove(target)
		}
		fmt.Println("warpd: stopped")
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpd:", err)
	os.Exit(1)
}
