// Command warpbench is the repository's one benchmark: four workloads
// generated from a seed, end-to-end metrics from an untraced run, per-layer
// metrics from a separate traced run, every output checked. See README.md.
//
//	warpbench -workload W -seed N -seconds S -trace 0|1   one run; the last line is the result
//	warpbench -report out.json [-runs R]                  every workload, R untraced runs and one traced
//	warpbench -compare A.json B.json                      judge B against A with the benchmark's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/fcache"
)

// maxWorkers caps workers at the width wide_cold fills: with more, its
// "no slot idle" premise would not hold on a larger host.
const maxWorkers = 4

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 16, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where a traced run writes <workload>.spans.json")
		report   = flag.String("report", "", "run every workload in child processes and write the report here")
		runs     = flag.Int("runs", 1, "with -report: untraced runs per workload, on seeds seed, seed+1, ...")
		commit   = flag.String("commit", "unknown", "commit the benchmark was built from, for the record; run.sh asks git")
		compare  = flag.Bool("compare", false, "compare two reports: warpbench -compare A.json B.json")
	)
	flag.Parse()
	// The caches must not pick up a disk tier from the caller's environment.
	os.Unsetenv(fcache.EnvCacheDir)

	cfg := config{seed: *seed, seconds: *seconds, tmp: *tmp, commit: *commit,
		workers: min(runtime.GOMAXPROCS(0), maxWorkers)}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *report != "":
		if err := writeReport(*report, cfg, *runs, flag.CommandLine); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q; have %s", *name, workloadNames()))
		}
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(w, cfg, *traceDir)
		} else {
			res, err = runUntraced(w, cfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(hostFacts(cfg).line())
		for _, n := range res.notes {
			fmt.Println(n)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "warpbench:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
