package main

import (
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; the package's test checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the compiler sees. The README gives each
// metric's definition and the reason for its bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"build_wall_ms_p50", "ms", "lower", 0.25},
	{"builds_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_build", "MB", "lower", 0.03},
	{"code_words", "words", "lower", 0.001},
	{"sim_cycles", "cycles", "lower", 0.001},
}

// failShare is the seventh end-to-end metric: builds that errored, or whose
// module is not word-identical to the sequential compiler's, over builds
// attempted. One run carries it as its result's failed and attempted, because
// a metric of BENCHMARK.json may never read 0 and this one always should;
// -report and -compare treat it as a metric with bound 0.
var failShare = metricDef{Name: "build_fail_share", Unit: "ratio", Better: "lower"}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer is read from the traced pass: the staged replay's spans, the
// ParallelStats of the traced builds, and a few micro-timed calls. A count
// with no better direction is listed as "lower".
var perLayer = concat(
	lower("ms", "parser.outline_ms", "parser.parse_ms", "parser.hash_ms", "sem.check_ms", "compiler.frontend_par_ms", "compiler.seq_wall_ms"),
	lower("lines", "parser.src_lines"),
	higher("ratio", "compiler.speedup_vs_seq"),
	lower("ms", "ir.lower_inline_ms", "ir.invert_ms", "ir.validate_ms", "opt.optimize_ms"),
	lower("count", "ir.instrs_lowered", "opt.passes", "opt.instrs_final"),
	higher("count", "opt.rewrites"),
	lower("ms", "codegen.isel_ms", "codegen.regalloc_ms", "codegen.listsched_ms", "codegen.modulo_ms"),
	lower("ratio", "codegen.modulo_share"),
	lower("count", "codegen.machine_ops", "codegen.spills", "codegen.modulo_loops_seen", "codegen.modulo_ii_sum"),
	higher("count", "codegen.modulo_loops_pipelined"),
	lower("ms", "asm.assemble_ms", "asm.encode_ms", "asm.decode_ms", "link.link_ms", "iodriver.generate_ms"),
	lower("bytes", "asm.object_bytes"),
	lower("ms", "sched.plan_ms", "sched.idle_ms"),
	lower("count", "sched.units", "sched.batches", "sched.steals", "sched.batch_splits", "sched.cross_build_steals"),
	lower("us", "sched.steal_latency_us"),
	higher("ratio", "sched.rank_corr"),
	lower("ms", "core.setup_ms", "core.frontend_ms", "core.dispatch_ms", "core.compile_wall_ms", "core.tail_ms",
		"core.critical_path_ms", "core.func_cpu_ms", "core.build_wall_ms_tail"),
	higher("ms", "core.frontend_overlap_ms"),
	higher("ratio", "core.utilisation"),
	lower("ratio", "core.recompile_ratio"),
	higher("count", "core.unchanged_funcs"),
	lower("%", "core.build_wall_tail_pct"),
	lower("us", "cluster.local_call_us", "cluster.rpc_call_us", "cluster.rpc_batch_call_us"),
	lower("count", "cluster.retries", "cluster.failovers", "cluster.local_fallbacks"),
	higher("count", "fcache.object_hits", "fcache.disk_hits"),
	lower("count", "fcache.object_misses"),
	higher("ratio", "fcache.hit_ratio"),
	lower("ns", "fcache.mem_probe_ns"),
	lower("us", "fcache.disk_probe_us", "fcache.disk_put_us"),
	lower("bytes", "fcache.record_bytes"),
	lower("us", "service.ping_rtt_us"),
	lower("ms", "service.overhead_ms", "service.job_latency_ms_tail"),
	higher("count", "service.jobs_accepted"),
	lower("count", "service.jobs_shed", "service.jobs_coalesced"),
	lower("ms", "warpsim.run_ms", "interp.run_ms"),
	higher("ratio", "warpsim.cell_utilisation"),
	lower("MB", "warpbench.peak_rss_mb"),
	lower("ratio", "warpbench.gc_cpu_share"),
	lower("%", "warpbench.trace_overhead_pct"),
	higher("count", "warpbench.builds_traced"),
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle of xs (the mean of the two middle values of an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and which percentile that is. Under twenty samples that
// percentile would lie below the median, and it returns the median instead.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns: the
// benchmark's repeatability is judged on their distance.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
