// Command warpcc is the W2 compiler driver. It compiles a module either
// sequentially or in parallel (goroutine workers or remote net/rpc
// workers), and can print listings, run the result on the array simulator,
// or verify that parallel and sequential compilation produce identical
// download modules.
//
// Usage:
//
//	warpcc [flags] file.w2
//
//	-mode seq|par|rpc     compilation mode (default seq)
//	-daemon ADDR          compile via a running warpd daemon instead (unix:/path or host:port)
//	-daemon-retries N     bounded resubmits when the daemon sheds with
//	                      warp-err:overloaded, waiting out its RetryAfter hint
//	-j N                  worker count for -mode par (default 4)
//	-workers host:port,.. worker addresses for -mode rpc
//	-sched fcfs|lpt       dispatch ordering (default lpt: cost-model + batching)
//	-batch-threshold C    estimated-cost cutoff for batching (0 disables)
//	-fe-workers N         parallel-frontend worker bound (0 = GOMAXPROCS, 1 = serial)
//	-cache-dir DIR        disk-backed object cache for par/rpc modes
//	-call-timeout D       per-RPC deadline for -mode rpc (0 disables)
//	-max-retries N        failover attempts per request for -mode rpc
//	-dial-retry D         readmission probe period for quarantined workers
//	-no-fallback          fail instead of compiling locally when no worker is up
//	-S                    print assembly listings
//	-run                  execute the module on the array simulator
//	-in v1,v2,...         input stream values for -run
//	-verify               compile both ways and compare the modules
//	-no-pipeline          disable software pipelining
//	-no-sched             disable instruction scheduling
//	-stats                print per-function compile statistics
//	-stats-json           emit the parallel stats as one JSON object on stderr
//	-cpuprofile FILE      write a CPU profile of the whole run (go tool pprof)
//	-memprofile FILE      write an allocation profile at exit, after a final GC
//
// In daemon mode the objects stay in the daemon, so -S prints no
// listings; everything else (-run, -verify, -stats) works unchanged.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/warpsim"
)

func main() {
	var (
		mode          = flag.String("mode", "seq", "compilation mode: seq, par, or rpc")
		jobs          = flag.Int("j", 4, "worker count for -mode par")
		workers       = flag.String("workers", "", "comma-separated worker addresses for -mode rpc")
		listing       = flag.Bool("S", false, "print assembly listings")
		run           = flag.Bool("run", false, "run the compiled module on the array simulator")
		inputCSV      = flag.String("in", "", "comma-separated input stream values for -run")
		verify        = flag.Bool("verify", false, "verify parallel output against sequential")
		noPipeline    = flag.Bool("no-pipeline", false, "disable software pipelining")
		noSched       = flag.Bool("no-sched", false, "disable instruction scheduling")
		cacheDir      = flag.String("cache-dir", "", "disk-backed object cache directory for par/rpc modes (persists across runs; overrides WARP_CACHE_DIR)")
		showStats     = flag.Bool("stats", false, "print per-function statistics")
		statsJSON     = flag.Bool("stats-json", false, "emit the parallel-compilation stats as one JSON object on stderr (durations in nanoseconds; rank-corr 0 when not computed)")
		daemonAddr    = flag.String("daemon", "", "compile via a running warpd daemon at this address (unix:/path or host:port) instead of -mode")
		clientID      = flag.String("client", "", "fair-share identity sent to the daemon (default: the connection address)")
		daemonRetries = flag.Int("daemon-retries", 3, "max resubmits after warp-err:overloaded, honoring the daemon's RetryAfter hint (0 surfaces the shed immediately)")

		schedName      = flag.String("sched", "lpt", "dispatch ordering for par/rpc modes: fcfs (the paper's policy: one request per function, declaration order) or lpt (cost-model ordering + batching)")
		batchThreshold = flag.Float64("batch-threshold", core.DefaultBatchThreshold, "estimated-cost cutoff below which functions are batched (0 disables batching)")
		feWorkers      = flag.Int("fe-workers", 0, "worker bound for the parallel frontend (0 = GOMAXPROCS, 1 = serial)")

		callTimeout = flag.Duration("call-timeout", 30*time.Second, "per-RPC deadline for -mode rpc (0 disables)")
		maxRetries  = flag.Int("max-retries", 3, "max failover attempts per request for -mode rpc (0 disables)")
		dialRetry   = flag.Duration("dial-retry", 500*time.Millisecond, "probe period for readmitting quarantined workers (0 disables)")
		noFallback  = flag.Bool("no-fallback", false, "fail instead of compiling in-process when no worker is available")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit, after a final GC (view with go tool pprof -sample_index=alloc_space)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: warpcc [flags] file.w2")
		flag.Usage()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	// fatal exits without running this: a failed compile leaves no profile.
	defer stopProfiles()

	opts := compiler.Options{Codegen: codegen.Options{
		DisablePipelining: *noPipeline,
		DisableScheduling: *noSched,
	}}

	copts := core.ParallelOptions{
		BatchThreshold:  *batchThreshold,
		FrontendWorkers: *feWorkers,
	}
	switch *schedName {
	case "fcfs":
		copts.Sched = core.SchedFCFS
	case "lpt":
		copts.Sched = core.SchedLPT
	default:
		fatal(fmt.Errorf("unknown -sched %q (want fcfs or lpt)", *schedName))
	}
	if *batchThreshold == 0 {
		copts.BatchThreshold = -1 // the flag's 0 means "no batching"
	}

	var res *compiler.Result
	var pstats *core.ParallelStats
	switch {
	case *daemonAddr != "":
		res, pstats, err = daemonCompile(*daemonAddr, *clientID, file, src, opts, copts, *daemonRetries)
	case *mode == "seq":
		res, err = compiler.CompileModule(file, src, opts)
	case *mode == "par":
		pool := cluster.NewLocalPool(*jobs)
		if *cacheDir != "" {
			if derr := pool.Cache().AttachDisk(*cacheDir, 0); derr != nil {
				fatal(fmt.Errorf("opening -cache-dir %s: %w", *cacheDir, derr))
			}
		}
		res, pstats, err = core.ParallelCompileWith(file, src, pool, opts, copts)
	case *mode == "rpc":
		if *workers == "" {
			fatal(fmt.Errorf("-mode rpc requires -workers"))
		}
		popts := cluster.FlagPoolOptions(*callTimeout, *maxRetries, *dialRetry)
		popts.DisableFallback = *noFallback
		popts.CacheDir = *cacheDir
		pool, derr := cluster.DialPoolWith(strings.Split(*workers, ","), popts)
		if derr != nil {
			fatal(derr)
		}
		defer pool.Close()
		if pool.Healthy() < pool.Workers() {
			fmt.Fprintf(os.Stderr, "warpcc: degraded start: %d/%d workers reachable\n",
				pool.Healthy(), pool.Workers())
		}
		res, pstats, err = core.ParallelCompileWith(file, src, pool, opts, copts)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if err != nil {
		fatal(err)
	}
	if pstats != nil {
		for _, w := range pstats.Faults.Warnings {
			fmt.Fprintln(os.Stderr, "warpcc: degraded:", w)
		}
		if *showStats {
			printParallelStats(pstats)
		}
		if *statsJSON {
			printParallelStatsJSON(pstats)
		}
	}

	// The combined diagnostic output (the paper's master prints what the
	// section masters merged).
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}

	fmt.Printf("compiled module %s: %d section(s), %d function(s), %d instruction words\n",
		res.ModuleName, len(res.Module.Cells), len(res.Funcs), res.Module.TotalWords())

	if *verify {
		seq, serr := compiler.CompileModule(file, src, opts)
		if serr != nil {
			fatal(serr)
		}
		if verr := core.VerifySameOutput(seq.Module, res.Module); verr != nil {
			fatal(fmt.Errorf("verification FAILED: %w", verr))
		}
		fmt.Println("verification OK: output identical to the sequential compiler")
	}

	if *showStats {
		for _, fr := range res.Funcs {
			fmt.Printf("  %-20s section %d  %4d lines", fr.Name, fr.Section, fr.Lines)
			if fr.CPUTime > 0 {
				fmt.Printf("  cpu %8v  loops %d/%d pipelined  %d spills",
					fr.CPUTime.Round(1000), fr.GenStats.LoopsPipelined,
					fr.GenStats.LoopsSeen, fr.GenStats.Spills)
			}
			fmt.Println()
		}
	}

	if *listing {
		for _, fr := range res.Funcs {
			if fr.Object != nil {
				fmt.Println(fr.Object.Listing())
			}
		}
	}

	if res.Driver != nil && *showStats {
		fmt.Println(res.Driver.Source())
	}

	if *run {
		var input []float64
		if *inputCSV != "" {
			for _, f := range strings.Split(*inputCSV, ",") {
				v, perr := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if perr != nil {
					fatal(perr)
				}
				input = append(input, v)
			}
		}
		arr := warpsim.NewArray(res.Module, warpsim.Config{})
		out, st, rerr := arr.Run(res.Driver.EncodeInput(input))
		if rerr != nil {
			fatal(rerr)
		}
		vals := res.Driver.DecodeOutput(out)
		fmt.Printf("simulation: %d cycles, %d output value(s)\n", st.Cycles, len(vals))
		for i, v := range vals {
			fmt.Printf("  out[%d] = %g\n", i, v)
		}
		for i, cs := range st.Cells {
			fmt.Printf("  cell %d: %.1f%% utilization (%d executed, %d stalled)\n",
				i, 100*cs.Utilization(st.Cycles+1), cs.Executed, cs.Stalled)
		}
	}
}

// daemonCompile submits the job to a running warpd and adapts its reply
// to the local result shape (function objects stay in the daemon, so
// FuncResult.Object is nil and -S prints nothing).
//
// An overloaded daemon sheds with warp-err:overloaded and a RetryAfter
// hint (its smoothed job service time scaled by queue depth). Rather than
// surfacing the shed, the client waits the hint out and resubmits, up to
// retries times with the hint as the base of an exponential backoff — an
// edit-loop client rides out a burst instead of failing the build.
func daemonCompile(addr, clientID, file string, src []byte, opts compiler.Options, copts core.ParallelOptions, retries int) (*compiler.Result, *core.ParallelStats, error) {
	cl, err := service.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	if clientID != "" {
		cl.SetIdentity(clientID)
	}
	var resp *service.Response
	for attempt := 0; ; attempt++ {
		resp, err = cl.Compile(context.Background(), file, src, opts, copts)
		if err == nil {
			break
		}
		var re *service.RemoteError
		if !errors.As(err, &re) {
			return nil, nil, err
		}
		if cluster.CodeOf(re) == cluster.CodeOverloaded && attempt < retries {
			delay := re.RetryAfter
			if delay <= 0 {
				delay = 100 * time.Millisecond
			}
			for i := 0; i < attempt; i++ {
				delay *= 2
			}
			if delay > 5*time.Second {
				delay = 5 * time.Second
			}
			fmt.Fprintf(os.Stderr, "warpcc: daemon overloaded, retrying in %v (%d/%d)\n",
				delay.Round(time.Millisecond), attempt+1, retries)
			time.Sleep(delay)
			continue
		}
		if cluster.CodeOf(re).Retryable() && re.RetryAfter > 0 {
			return nil, nil, fmt.Errorf("%w (daemon suggests retrying in %v)", re, re.RetryAfter)
		}
		return nil, nil, err
	}
	res := &compiler.Result{
		ModuleName: resp.ModuleName,
		Module:     resp.Module,
		Driver:     resp.Driver,
		Warnings:   resp.Warnings,
	}
	for _, fs := range resp.Funcs {
		res.Funcs = append(res.Funcs, &compiler.FuncResult{
			Name: fs.Name, Section: fs.Section, Lines: fs.Lines, CPUTime: fs.CPUTime,
		})
	}
	if resp.Coalesced {
		fmt.Fprintln(os.Stderr, "warpcc: job coalesced with an identical in-flight compile")
	}
	return res, resp.Stats, nil
}

// printParallelStatsJSON emits the stats as one JSON object on stderr for
// machine consumption (CI dashboards, build telemetry). Durations are
// nanoseconds; an uncomputed rank correlation (NaN) is reported as 0,
// which JSON cannot carry.
func printParallelStatsJSON(s *core.ParallelStats) {
	js := *s
	if math.IsNaN(js.Dispatch.RankCorr) {
		js.Dispatch.RankCorr = 0
	}
	b, err := json.Marshal(&js)
	if err != nil {
		fatal(fmt.Errorf("encoding -stats-json: %w", err))
	}
	fmt.Fprintln(os.Stderr, string(b))
}

// printParallelStats renders the timing breakdown, scheduling decisions,
// and backend counters of one parallel compilation.
func printParallelStats(s *core.ParallelStats) {
	fmt.Printf("parallel: %d workers, elapsed %v, setup %v, frontend %v\n",
		s.Workers, s.Elapsed.Round(1000), s.SetupTime.Round(1000), s.FrontendTime.Round(1000))
	fmt.Printf("timing: dispatch %v, compile-wall %v, tail %v\n",
		s.DispatchTime.Round(1000), s.CompileWallTime.Round(1000), s.BackendTail.Round(1000))
	p := s.Pipeline
	fmt.Printf("pipeline: frontend-overlap %v, link %v (%v overlapped), driver %v, critical-path %v\n",
		p.FrontendOverlap.Round(1000), p.LinkTime.Round(1000), p.LinkOverlap.Round(1000),
		p.DriverTime.Round(1000), p.CriticalPath.Round(1000))
	if p.FrontendWorkers > 0 {
		fmt.Printf("pipeline: frontend-check-wall %v, frontend-workers %d\n",
			p.FrontendCheckWall.Round(1000), p.FrontendWorkers)
	}
	d := s.Dispatch
	rankCorr := "" // meaningless below 3 samples (NaN): omitted entirely
	if !math.IsNaN(d.RankCorr) {
		rankCorr = fmt.Sprintf(" rank-corr=%.2f", d.RankCorr)
	}
	fmt.Printf("schedule: policy=%s threshold=%.0f units=%d batches=%d batched-funcs=%d%s\n",
		d.Policy, d.BatchThreshold, d.Units, d.Batches, d.BatchedFuncs, rankCorr)
	st := s.Steal
	var idle time.Duration
	for _, d := range st.IdleTime {
		idle += d
	}
	fleet := "private"
	if st.Shared {
		fleet = "shared"
	}
	fmt.Printf("fleet: idle-total=%v fleet=%s\n", idle.Round(1000), fleet)
	fmt.Printf("incremental: unchanged=%d worker-hits=%d recompiled=%d recompile-ratio=%.2f\n",
		d.UnchangedFuncs, d.IncrementalHits, d.RecompiledFuncs, d.RecompileRatio)
	fmt.Printf("cache: %s\n", s.Cache)
	if s.Faults.Any() {
		fmt.Printf("faults: %s\n", s.Faults)
	}
}

// startProfiles begins the CPU profile (if asked for) and returns the
// function that ends it and writes the allocation profile. The heap profile
// is taken after a GC so its in-use numbers are live data, not garbage; its
// alloc_space sample index is the bytes-per-site view DESIGN.md's "where the
// bytes go" table was read from.
func startProfiles(cpuFile, memFile string) (stop func(), err error) {
	if memFile != "" {
		// One build allocates tens of MB; the default 512 KB sampling period
		// would rank its sites from a few dozen samples.
		runtime.MemProfileRate = 4096
	}
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "warpcc: -cpuprofile:", err)
			}
		}
		if memFile == "" {
			return
		}
		f, err := os.Create(memFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "warpcc: -memprofile:", err)
			return
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "warpcc: -memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "warpcc: -memprofile:", err)
		}
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpcc:", err)
	os.Exit(1)
}
