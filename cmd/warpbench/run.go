package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fcache"
)

// An untraced run sets the workload up at least minSetUps times, and again
// until a tenth of the timed window's length has been spent or maxSetUps is
// reached: setup_s is the median, and a set-up of a tenth of a second needs
// more repeats than one of three seconds to read steadily. The repeats double
// as the determinism check.
const (
	minSetUps = 3
	maxSetUps = 9
)

// warmUpSeconds is how long a workload whose pool or daemon outlives a build
// runs builds before the timed window: the first seconds of such a process
// (a heap too small for its garbage collector's pacing, unfitted cost model,
// empty worker caches) read up to a quarter slower than the rest, and a
// long-lived service's users do not pay that on every build. Its builds are
// checked and counted like the others; only their timings are left out. It is
// not part of setup_s: its length is fixed, so no work can hide in it.
const warmUpSeconds = 4

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	notes     []string // printed above the result line: sample counts, first failure
	unhealthy bool     // a fault counter of the fleet is not 0
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fill turns measured numbers into the result's metrics. A per-layer metric
// the workload has no use of (service.* without a daemon) reads 0.
func (r *result) fill(defs []metricDef, got map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v := got[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
}

func (r *result) addWindow(win window) {
	r.Attempted += win.attempted
	r.Failed += win.failed
	if win.firstErr != nil {
		r.notef("first failure: %v", win.firstErr)
	}
}

func walls(bs []built) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = ms(b.wall)
	}
	return out
}

// setUpTimes sets w up at least min times, and up to max times while budget
// lasts, and returns the last set-up with the time each took. Consecutive
// set-ups must compile the program to identical object bytes, or code_words
// and sim_cycles are not exact counts.
func setUpTimes(w *workload, cfg config, min, max int, budget time.Duration) (*env, []float64, error) {
	var times []float64
	var e *env
	start := time.Now()
	for rep := 0; rep < min || rep < max && time.Since(start) < budget; rep++ {
		t0 := time.Now()
		next, err := setUp(w, cfg, rep)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if e != nil {
			same := len(e.objects) == len(next.objects) && e.simStats.Cycles == next.simStats.Cycles
			for i := 0; same && i < len(e.objects); i++ {
				same = bytes.Equal(e.objects[i], next.objects[i])
			}
			e.close()
			if !same {
				next.close()
				return nil, nil, fmt.Errorf("%s: two sequential compiles of the program differ", w.name)
			}
		}
		e = next
	}
	return e, times, nil
}

// warmUp runs the untimed builds of a workload with state that outlives a
// build; see warmUpSeconds.
func (e *env) warmUp(res *result) {
	if e.w.warm {
		res.addWindow(e.measure(nil, warmUpSeconds, e.cfg.builds))
	}
}

// runUntraced measures the end-to-end metrics of w with tracing off.
func runUntraced(w *workload, cfg config) (*result, error) {
	res := &result{}
	e, setups, err := setUpTimes(w, cfg, minSetUps, maxSetUps, time.Duration(cfg.seconds/10*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	defer e.close()

	e.warmUp(res)
	win := e.measure(nil, cfg.seconds, cfg.builds)
	res.addWindow(win)
	got := map[string]float64{
		"setup_s":    median(setups),
		"code_words": float64(e.ref.Module.TotalWords()),
		"sim_cycles": float64(e.simStats.Cycles),
	}
	if n := len(win.builds); n > 0 {
		got["build_wall_ms_p50"] = median(walls(win.builds))
		got["builds_per_s"] = float64(n) / win.waited.Seconds()
		got["alloc_mb_per_build"] = float64(win.allocBytes) / float64(n) / (1 << 20)
	}
	res.notef("%s: %d builds by %d client(s), %d set-ups, seq compile %.1f ms", w.name, len(win.builds), len(e.next), len(setups), ms(e.seqWall))
	if ws := walls(win.builds); len(ws) > 0 {
		sort.Float64s(ws)
		q := func(p float64) float64 { return ws[int(p*float64(len(ws)-1))] }
		res.notef("wall ms: min %.4g p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g max %.4g", ws[0], q(.1), q(.25), q(.5), q(.75), q(.9), ws[len(ws)-1])
	}
	res.fill(endToEnd, got)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runTraced produces the per-layer metrics of w: a staged replay of the
// program under the span recorder, then builds through the workload's real
// path, then the micro-timed calls. The builds run in two windows of half of
// cfg.seconds each: an untraced one, the base of the tracing-overhead figure,
// then the traced one every other number is read from. The spans go to
// traceDir/<workload>.spans.json.
func runTraced(w *workload, cfg config, traceDir string) (*result, error) {
	res := &result{}
	// Two set-ups: the first is the process's warm-up, and seq_wall_ms of a
	// cold process would overstate the sequential compiler.
	e, _, err := setUpTimes(w, cfg, 2, 2, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rec := newRecorder()
	got := make(map[string]float64)

	counts, err := replay(rec, e)
	if err != nil {
		return nil, err
	}

	e.warmUp(res)
	plain := e.measure(nil, cfg.seconds/2, cfg.builds)
	res.addWindow(plain)
	// The counters of a warm pool are cumulative: the traced window's share
	// is what they gained over it.
	cache0, faults0 := e.cacheStats(), e.faultStats()
	traced := e.measure(rec, cfg.seconds/2, cfg.builds)
	res.addWindow(traced)
	cache, faults := e.cacheStats(), e.faultStats()
	cache.Sub(cache0)
	faults.Sub(faults0)
	if len(plain.builds) == 0 || len(traced.builds) == 0 {
		res.fill(perLayer, got)
		return res, nil // the failure is in res.Failed and the notes
	}

	// Staged replay: self time per layer call, counts from return values.
	self := rec.selfTimes()
	for name, spanName := range map[string]string{
		"parser.outline_ms":        "parser.ParseOutline",
		"parser.parse_ms":          "parser.Parse",
		"parser.hash_ms":           "parser.FuncHashes",
		"sem.check_ms":             "sem.Check",
		"compiler.frontend_par_ms": "compiler.FrontendParallel",
		"ir.lower_inline_ms":       "ir.LowerInline",
		"ir.invert_ms":             "ir.InvertLoops",
		"ir.validate_ms":           "ir.Validate",
		"opt.optimize_ms":          "opt.Optimize",
		"codegen.isel_ms":          "codegen.Select",
		"codegen.regalloc_ms":      "codegen.Allocate",
		"codegen.listsched_ms":     "codegen.ScheduleBlock",
		"codegen.modulo_ms":        "codegen.TryPipeline",
		"asm.assemble_ms":          "asm.Assemble",
		"asm.encode_ms":            "asm.Encode",
		"asm.decode_ms":            "asm.Decode",
		"link.link_ms":             "link.LinkModule",
		"iodriver.generate_ms":     "iodriver.Generate",
	} {
		got[name] = ms(self[spanName])
	}
	// The staged total is every function's span: all of phases 2 and 3 and
	// the per-function part of phase 4, the harness's own time included.
	var staged time.Duration
	for _, s := range rec.spans {
		if s.Name == "function" {
			staged += time.Duration(s.EndNs - s.StartNs)
		}
	}
	got["codegen.modulo_share"] = got["codegen.modulo_ms"] / ms(staged)
	got["parser.src_lines"] = float64(counts.srcLines)
	got["ir.instrs_lowered"] = float64(counts.instrsLowered)
	got["opt.passes"] = float64(counts.optPasses)
	got["opt.rewrites"] = float64(counts.optRewrites)
	got["opt.instrs_final"] = float64(counts.instrsFinal)
	got["codegen.machine_ops"] = float64(counts.machineOps)
	got["codegen.spills"] = float64(counts.spills)
	got["codegen.modulo_loops_seen"] = float64(counts.loopsSeen)
	got["codegen.modulo_loops_pipelined"] = float64(counts.loopsPipelined)
	got["codegen.modulo_ii_sum"] = float64(counts.iiSum)
	got["asm.object_bytes"] = float64(counts.objectBytes)

	// Traced builds: each number is the median over the builds of what the
	// build's own ParallelStats says.
	med := func(f func(*core.ParallelStats) float64) float64 {
		xs := make([]float64, len(traced.builds))
		for i, b := range traced.builds {
			xs[i] = f(b.stats)
		}
		return median(xs)
	}
	dur := func(f func(*core.ParallelStats) time.Duration) float64 {
		return med(func(s *core.ParallelStats) float64 { return ms(f(s)) })
	}
	p50 := median(walls(traced.builds))
	got["compiler.seq_wall_ms"] = ms(e.seqWall)
	got["compiler.speedup_vs_seq"] = ms(e.seqWall) / p50
	got["sched.units"] = med(func(s *core.ParallelStats) float64 { return float64(s.Dispatch.Units) })
	got["sched.batches"] = med(func(s *core.ParallelStats) float64 { return float64(s.Dispatch.Batches) })
	got["sched.steals"] = med(func(s *core.ParallelStats) float64 { return float64(s.Steal.Steals) })
	got["sched.batch_splits"] = med(func(s *core.ParallelStats) float64 { return float64(s.Steal.BatchSplits) })
	got["sched.steal_latency_us"] = med(func(s *core.ParallelStats) float64 { return us(s.Steal.StealLatency) })
	got["sched.idle_ms"] = dur(func(s *core.ParallelStats) time.Duration {
		var idle time.Duration
		for _, d := range s.Steal.IdleTime {
			idle += d
		}
		return idle
	})
	got["sched.rank_corr"] = med(func(s *core.ParallelStats) float64 {
		if math.IsNaN(s.Dispatch.RankCorr) { // fewer than 3 functions compiled
			return 0
		}
		return s.Dispatch.RankCorr
	})
	got["core.setup_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.SetupTime })
	got["core.frontend_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.FrontendTime })
	got["core.dispatch_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.DispatchTime })
	got["core.compile_wall_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.CompileWallTime })
	got["core.tail_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.BackendTail })
	got["core.critical_path_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.Pipeline.CriticalPath })
	got["core.frontend_overlap_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.Pipeline.FrontendOverlap })
	got["core.func_cpu_ms"] = dur(func(s *core.ParallelStats) time.Duration { return s.TotalFuncCPU() })
	got["core.utilisation"] = med(func(s *core.ParallelStats) float64 {
		if s.CompileWallTime <= 0 || s.Workers == 0 {
			return 0
		}
		return s.TotalFuncCPU().Seconds() / (float64(s.Workers) * s.CompileWallTime.Seconds())
	})
	got["core.recompile_ratio"] = med(func(s *core.ParallelStats) float64 { return s.Dispatch.RecompileRatio })
	got["core.unchanged_funcs"] = med(func(s *core.ParallelStats) float64 { return float64(s.Dispatch.UnchangedFuncs) })
	// The build as core timed it; service.job_latency_ms_tail is the same
	// percentile of what the daemon's clients saw.
	elapsed := make([]float64, len(traced.builds))
	for i, b := range traced.builds {
		elapsed[i] = ms(b.stats.Elapsed)
	}
	got["core.build_wall_ms_tail"], got["core.build_wall_tail_pct"] = tail(elapsed)

	got["cluster.retries"] = float64(faults.Retries)
	got["cluster.failovers"] = float64(faults.Failovers)
	got["cluster.local_fallbacks"] = float64(faults.LocalFallbacks)
	if faults.Any() {
		// A failed run, not noise; no single build is to blame.
		res.unhealthy = true
		res.notef("faults on a healthy fleet: %s", faults)
	}
	got["fcache.object_hits"] = float64(cache.ObjectHits)
	got["fcache.object_misses"] = float64(cache.ObjectMisses)
	got["fcache.disk_hits"] = float64(cache.DiskHits)
	if n := cache.ObjectHits + cache.ObjectMisses; n > 0 {
		got["fcache.hit_ratio"] = float64(cache.ObjectHits) / float64(n)
	}

	if w.daemon {
		over := make([]float64, len(traced.builds))
		for i, b := range traced.builds {
			over[i] = ms(b.wall - b.stats.Elapsed)
		}
		got["service.overhead_ms"] = median(over)
		got["service.job_latency_ms_tail"], _ = tail(walls(traced.builds))
		ds, err := e.clients[0].Stats(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s: daemon stats: %w", w.name, err)
		}
		got["service.jobs_accepted"] = float64(ds.JobsAccepted)
		got["service.jobs_shed"] = float64(ds.JobsShed)
		got["service.jobs_coalesced"] = float64(ds.JobsCoalesced)
		// The fleet outlives the builds; a per-build median would round its
		// cross-build steals away.
		got["sched.cross_build_steals"] = float64(ds.FleetCrossBuildSteals)
	}

	if err := e.microTimings(got); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	got["warpsim.run_ms"] = ms(e.simRun)
	got["interp.run_ms"] = ms(e.interpRun)
	var util float64
	for _, c := range e.simStats.Cells {
		util += c.Utilization(e.simStats.Cycles) / float64(len(e.simStats.Cells))
	}
	got["warpsim.cell_utilisation"] = util

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	got["warpbench.gc_cpu_share"] = mem.GCCPUFraction
	got["warpbench.peak_rss_mb"] = peakRSSMB()
	got["warpbench.trace_overhead_pct"] = 100 * (p50 - median(walls(plain.builds))) / median(walls(plain.builds))
	got["warpbench.builds_traced"] = float64(len(traced.builds))

	path := filepath.Join(traceDir, w.name+".spans.json")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	res.notef("%s: %d traced and %d untraced builds, %d spans in %s", w.name, len(traced.builds), len(plain.builds), len(rec.spans), path)
	res.fill(perLayer, got)
	res.Correct = !res.unhealthy && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// cacheStats is the cumulative cache counters of whatever the builds go
// through.
func (e *env) cacheStats() fcache.Stats {
	switch {
	case e.rpc != nil:
		return e.rpc.CacheStats()
	case e.pool != nil:
		return e.pool.CacheStats()
	}
	return e.coldCache
}

func (e *env) faultStats() core.FaultStats {
	if e.rpc != nil {
		return e.rpc.FaultStats()
	}
	return core.FaultStats{}
}

// peakRSSMB reads this process's resident-set high-water mark; 0 where
// /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
