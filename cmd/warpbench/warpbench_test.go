package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smoke runs every workload once untraced and once traced on the reduced
// programs, one build per window.
func smoke(t *testing.T, seed uint64) (untraced, traced map[string]*result) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{seed: seed, builds: 1, smoke: true, tmp: dir, workers: min(runtime.GOMAXPROCS(0), maxWorkers)}
	untraced, traced = make(map[string]*result), make(map[string]*result)
	for i := range workloads {
		w := &workloads[i]
		u, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		tr, err := runTraced(w, cfg, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*result{u, tr} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, r.Correct, r.Attempted, r.Failed, r.notes)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".spans.json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		untraced[w.name], traced[w.name] = u, tr
	}
	return untraced, traced
}

func TestSmoke(t *testing.T) {
	u1, t1 := smoke(t, 1)
	u2, t2 := smoke(t, 2)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		for _, c := range []struct {
			defs []metricDef
			got  map[string]value
		}{{endToEnd, u1[w.name].Metrics}, {perLayer, t1[w.name].Metrics}} {
			if len(c.got) != len(c.defs) {
				t.Errorf("%s: %d metrics reported, %d defined", w.name, len(c.got), len(c.defs))
			}
			for _, d := range c.defs {
				v, ok := c.got[d.Name]
				if !ok || v.Unit != d.Unit || !name.MatchString(d.Name) {
					t.Errorf("%s: metric %q: present=%v unit=%q want %q", w.name, d.Name, ok, v.Unit, d.Unit)
				}
			}
		}
		for _, d := range endToEnd {
			if u1[w.name].Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is not positive", w.name, d.Name)
			}
		}
		// Counts depend on the base program alone: equal across runs and seeds.
		for _, m := range []string{"code_words", "sim_cycles"} {
			if a, b := u1[w.name].Metrics[m].Value, u2[w.name].Metrics[m].Value; a != b {
				t.Errorf("%s: %s differs across runs: %v, %v", w.name, m, a, b)
			}
		}
		for _, m := range []string{"core.recompile_ratio", "codegen.machine_ops", "codegen.modulo_ii_sum", "opt.instrs_final"} {
			if a, b := t1[w.name].Metrics[m].Value, t2[w.name].Metrics[m].Value; a != b {
				t.Errorf("%s: %s differs across runs: %v, %v", w.name, m, a, b)
			}
		}
		for _, m := range []string{"cluster.retries", "cluster.failovers", "cluster.local_fallbacks", "service.jobs_shed", "service.jobs_coalesced"} {
			if v := t1[w.name].Metrics[m].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, m, v)
			}
		}
	}
	if got := t1["incremental_1edit"].Metrics["core.recompile_ratio"].Value; got != 1.0/16 {
		t.Errorf("incremental_1edit: recompile ratio %v, want 1/16", got)
	}
}

// The seed changes the edited sources and nothing about the base programs.
func TestSeedChangesOnlyEdits(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var jobs [2][]byte
		for s := range jobs {
			cfg := config{seed: uint64(s + 1), smoke: true, tmp: t.TempDir(), workers: 1}
			e, err := setUp(w, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(e.src, w.program(true)) {
				t.Errorf("%s: base program depends on the seed", w.name)
			}
			jobs[s], err = e.jobSource(0, 0)
			e.close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if same := bytes.Equal(jobs[0], jobs[1]); same != (w.edits == 0) {
			t.Errorf("%s: edits=%d but job sources equal across seeds = %v", w.name, w.edits, same)
		}
	}
}

// A failed build does not end its client's loop, so that failed/attempted is
// a share of the whole window.
func TestFailedBuildsKeepCounting(t *testing.T) {
	e, err := setUp(findWorkload("daemon_rpc_smallfuncs"), config{seed: 1, smoke: true, tmp: t.TempDir(), workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.daemon.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	e.daemon = nil
	win := e.measure(nil, 0, 3)
	if win.attempted != 3*len(e.clients) || win.failed != win.attempted || len(win.builds) != 0 || win.firstErr == nil {
		t.Errorf("attempted=%d failed=%d completed=%d first error %v", win.attempted, win.failed, len(win.builds), win.firstErr)
	}
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"cmd/warpbench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sum := func(unit string, vs ...float64) summary {
		s := summary{Unit: unit, Values: vs}
		s.Q1, s.Median, s.Q3 = quartiles(vs)
		return s
	}
	mkFail := func(fail float64, wall ...float64) report {
		return report{
			Bounds: []metricDef{{Name: "build_wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}, failShare},
			Workloads: []workloadReport{{Name: "w", Correct: fail == 0, EndToEnd: map[string]summary{
				"build_wall_ms_p50": sum("ms", wall...), failShare.Name: sum(failShare.Unit, fail, fail)}}},
		}
	}
	mk := func(wall ...float64) report { return mkFail(0, wall...) }
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(100, 101, 99, 100))
	for _, c := range []struct {
		name, want string
		r          report
	}{
		{"same.json", "ok", mk(101, 100, 102, 100)},
		{"slow.json", "regressed", mk(120, 121, 119, 120)},
		{"noisy.json", "unresolved", mk(80, 100, 120, 105)},
		{"failing.json", "regressed", mkFail(0.01, 101, 100, 102, 100)},
	} {
		var out bytes.Buffer
		ok, err := compareReports(&out, base, write(c.name, c.r))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.want) || ok != (c.want == "ok") {
			t.Errorf("%s: want %s, ok=%v:\n%s", c.name, c.want, ok, out.String())
		}
	}
}
