package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// host is what a reader needs to know about where numbers were measured.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func hostFacts(cfg config) host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers,
		GoVersion: runtime.Version(), Commit: cfg.commit, Seed: cfg.seed, Seconds: cfg.seconds}
}

func (h host) line() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d workers=%d %s commit=%s seed=%d seconds=%g",
		h.NProc, h.GOMAXPROCS, h.Workers, h.GoVersion, h.Commit, h.Seed, h.Seconds)
}

// summary is one end-to-end metric over the untraced runs of a report.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per run, in seed order
}

// spread is the distance between the quartiles as a share of the median, 0
// for a single run.
func (s summary) spread() float64 {
	if len(s.Values) < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
}

type report struct {
	Host      host             `json:"host"`
	Bounds    []metricDef      `json:"bounds"`
	Workloads []workloadReport `json:"workloads"`
}

// runChild runs one workload once in a child process, so that its peak RSS
// and GC share are its own, and returns the result line.
func runChild(name string, seed uint64, trace int, fs *flag.FlagSet) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10), "-trace", strconv.Itoa(trace)}
	// Everything else the parent was given applies to the child as it stands.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload", "seed", "trace", "report", "runs":
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %v, no result line", name, seed, trace, err)
	}
	return &res, nil // a run that printed a result reports its own failures
}

// writeReport runs every workload runs times untraced, on consecutive seeds,
// and once traced, and writes all of it with the host facts to path. It also
// prints every metric by name with its unit.
func writeReport(path string, cfg config, runs int, fs *flag.FlagSet) error {
	bounds := append(append([]metricDef(nil), endToEnd...), failShare)
	rep := report{Host: hostFacts(cfg), Bounds: bounds}
	fmt.Println(rep.Host.line())
	allCorrect := true
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Why: w.why, Correct: true, EndToEnd: make(map[string]summary)}
		values := make(map[string][]float64)
		for r := 0; r < runs; r++ {
			res, err := runChild(w.name, cfg.seed+uint64(r), 0, fs)
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			values[failShare.Name] = append(values[failShare.Name], float64(res.Failed)/float64(res.Attempted))
			if !res.Correct {
				continue // its timings are of builds that failed, or of none
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		traced, err := runChild(w.name, cfg.seed, 1, fs)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && traced.Correct
		wr.Attempted += traced.Attempted
		wr.Failed += traced.Failed
		wr.PerLayer = traced.Metrics

		fmt.Printf("\n%s: %s\n  correct=%v attempted=%d failed=%d untraced-runs=%d\n", w.name, w.why, wr.Correct, wr.Attempted, wr.Failed, runs)
		for _, d := range bounds {
			s := summary{Unit: d.Unit, Values: values[d.Name]}
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			wr.EndToEnd[d.Name] = s
			fmt.Printf("  %-32s %14.6g %-7s spread %.4f over %d run(s), bound %g\n", d.Name, s.Median, d.Unit, s.spread(), len(s.Values), d.Bound)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
		allCorrect = allCorrect && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !allCorrect {
		return fmt.Errorf("a correctness check failed; see %s", path)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports judges report b against report a, per workload and
// end-to-end metric, with a's bounds: "regressed" when b's median is worse
// than a's by more than the bound, "unresolved" when it is not but either
// side's run-to-run spread is wider than the bound, "ok" otherwise. It
// reports whether every row is ok.
func compareReports(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A %s: %s\nB %s: %s\n", pathA, a.Host.line(), pathB, b.Host.line())
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tB/A\tworse by\tspread A\tspread B\tbound\tverdict")
	allOK := true
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		if !wa.Correct || !wb.Correct {
			allOK = false
			fmt.Fprintf(tw, "%s\tcorrect\t%v\t%v\t\t\t\t\t\t\tregressed\n", wa.Name, wa.Correct, wb.Correct)
		}
		for _, d := range a.Bounds {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(sa.Values) == 0 || len(sb.Values) == 0 {
				return false, fmt.Errorf("%s: %s is missing in a report", wa.Name, d.Name)
			}
			// A share of A's median, except where that is 0, as a good run's
			// build_fail_share is: there any rise is worse than its bound of 0.
			worse, ratio := sb.Median-sa.Median, "n/a"
			if sa.Median != 0 {
				worse /= sa.Median
				ratio = fmt.Sprintf("%.4f of A", sb.Median/sa.Median)
			}
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			}
			allOK = allOK && verdict == "ok"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%+.4f\t%.4f\t%.4f\t%g\t%s\n",
				wa.Name, d.Name, sa.Median, sb.Median, d.Unit, ratio, worse, sa.spread(), sb.spread(), d.Bound, verdict)
		}
	}
	return allOK, tw.Flush()
}
