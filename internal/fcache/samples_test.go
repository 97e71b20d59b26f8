package fcache

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

func sampleWindow(n int) []sched.CostSample {
	out := make([]sched.CostSample, n)
	for i := range out {
		out[i] = sched.CostSample{
			Lines:     10 + i,
			LoopDepth: 1 + i%3,
			Section:   1 + i%2,
			Seconds:   float64(1+i) * 1e-3,
		}
	}
	return out
}

func TestCostSamplesRoundTrip(t *testing.T) {
	c := New(1 << 20)
	if err := c.AttachDisk(t.TempDir(), 1<<20); err != nil {
		t.Fatal(err)
	}
	want := sampleWindow(16)
	if err := c.PutCostSamples(want); err != nil {
		t.Fatal(err)
	}
	got := c.CostSamples()
	if len(got) != len(want) {
		t.Fatalf("round trip: got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestCostSamplesWindowTrim(t *testing.T) {
	c := New(1 << 20)
	if err := c.AttachDisk(t.TempDir(), 1<<20); err != nil {
		t.Fatal(err)
	}
	over := sampleWindow(CostSampleWindow + 100)
	if err := c.PutCostSamples(over); err != nil {
		t.Fatal(err)
	}
	got := c.CostSamples()
	if len(got) != CostSampleWindow {
		t.Fatalf("window: got %d samples, want %d", len(got), CostSampleWindow)
	}
	// The most recent samples survive, not the oldest.
	if got[len(got)-1] != over[len(over)-1] || got[0] != over[100] {
		t.Error("trim must keep the tail of the window")
	}
}

func TestCostSamplesNoDiskTier(t *testing.T) {
	c := New(1 << 20) // memory tier only
	if err := c.PutCostSamples(sampleWindow(4)); err != nil {
		t.Fatalf("diskless put must be a silent no-op: %v", err)
	}
	if got := c.CostSamples(); got != nil {
		t.Fatalf("diskless load must be nil, got %d samples", len(got))
	}
}

func TestCostSamplesMissingFile(t *testing.T) {
	c := New(1 << 20)
	if err := c.AttachDisk(t.TempDir(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := c.CostSamples(); got != nil {
		t.Fatalf("no record yet must load nil, got %d samples", len(got))
	}
	if c.Stats().DiskErrors != 0 {
		t.Error("a missing record is not an error")
	}
}

// TestCostSamplesCorruptRecord: a truncated or scribbled record must never
// fail a compile — the load reports nil (static model fallback), counts a
// disk error, and deletes the bad file so the next run starts clean.
func TestCostSamplesCorruptRecord(t *testing.T) {
	cases := map[string]func(path string){
		"garbage-bytes": func(path string) {
			os.WriteFile(path, []byte("not a gob record"), 0o666)
		},
		"truncated": func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o666)
		},
		"bit-flip": func(path string) {
			data, _ := os.ReadFile(path)
			data[len(data)-3] ^= 0xff
			os.WriteFile(path, data, 0o666)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := New(1 << 20)
			if err := c.AttachDisk(dir, 1<<20); err != nil {
				t.Fatal(err)
			}
			if err := c.PutCostSamples(sampleWindow(8)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "cost-samples.wfc")
			corrupt(path)
			if got := c.CostSamples(); got != nil {
				t.Fatalf("corrupt record must load nil, got %d samples", len(got))
			}
			if n := c.Stats().DiskErrors; n != 1 {
				t.Errorf("DiskErrors = %d, want 1", n)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt record must be deleted")
			}
			// The next run writes a fresh record over the cleaned slate.
			if err := c.PutCostSamples(sampleWindow(4)); err != nil {
				t.Fatal(err)
			}
			if got := c.CostSamples(); len(got) != 4 {
				t.Errorf("recovery write: got %d samples, want 4", len(got))
			}
		})
	}
}

// TestCostSamplesOutsideObjectNamespace: the sample record must survive the
// object tier's scan and eviction — it lives outside the o-*.wfc namespace.
func TestCostSamplesSurviveObjectEviction(t *testing.T) {
	dir := t.TempDir()
	c := New(1 << 20)
	// A tiny disk budget forces eviction as objects land.
	if err := c.AttachDisk(dir, 2048); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCostSamples(sampleWindow(8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fh := FuncHash{byte(i), byte(i >> 8)}
		_, err := c.Object(fh, "v1", func() (*ObjectEntry, error) {
			return &ObjectEntry{Name: "f", Section: 1, ObjectBytes: make([]byte, 400)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CostSamples(); len(got) != 8 {
		t.Fatalf("object eviction clobbered the sample record: got %d samples, want 8", len(got))
	}
}

// TestFittedModelMemoized pins the daemon-level memo: one fit per change to
// the samples record, stat-hits in between, and the returned window is a
// private copy the caller may append to freely.
func TestFittedModelMemoized(t *testing.T) {
	dir := t.TempDir()
	c := New(1 << 20)
	if err := c.AttachDisk(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCostSamples(sampleWindow(32)); err != nil {
		t.Fatal(err)
	}
	if got := c.ModelFitCount(); got != 1 {
		t.Fatalf("PutCostSamples must fit once, got %d fits", got)
	}
	m1, s1 := c.FittedCostModel()
	m2, s2 := c.FittedCostModel()
	if got := c.ModelFitCount(); got != 1 {
		t.Fatalf("back-to-back reads over an unchanged window must not re-fit: %d fits", got)
	}
	if m1 != m2 || len(s1) != 32 || len(s2) != 32 {
		t.Fatalf("memo hit must return the same model and window: %+v/%d vs %+v/%d", m1, len(s1), m2, len(s2))
	}

	// The returned slice is a copy: the per-job append of observed samples
	// must not leak into what the next job is handed.
	s1 = append(s1, sched.CostSample{Lines: 9999, Seconds: 1})
	_, s3 := c.FittedCostModel()
	if len(s3) != 32 {
		t.Fatalf("caller append mutated the memoized window: %d samples", len(s3))
	}

	// A new Put refreshes the memo in place (one more fit, no read needed).
	if err := c.PutCostSamples(sampleWindow(48)); err != nil {
		t.Fatal(err)
	}
	if got := c.ModelFitCount(); got != 2 {
		t.Fatalf("PutCostSamples must refresh the memo with one fit, got %d", got)
	}
	if _, s := c.FittedCostModel(); len(s) != 48 {
		t.Fatalf("memo not refreshed by Put: %d samples", len(s))
	}
	if got := c.ModelFitCount(); got != 2 {
		t.Fatalf("read after Put must be a memo hit, got %d fits", got)
	}
}

// TestFittedModelRefitsOnExternalChange: a second cache over the same
// directory (another daemon, or warpcc racing warpd) rewrites the record;
// the first cache's stat key no longer matches and it must re-read and
// re-fit rather than serve the stale memo.
func TestFittedModelRefitsOnExternalChange(t *testing.T) {
	dir := t.TempDir()
	a := New(1 << 20)
	if err := a.AttachDisk(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := a.PutCostSamples(sampleWindow(16)); err != nil {
		t.Fatal(err)
	}
	if _, s := a.FittedCostModel(); len(s) != 16 {
		t.Fatalf("want 16 samples, got %d", len(s))
	}

	b := New(1 << 20)
	if err := b.AttachDisk(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Different sample count => different record size, so the stat key
	// changes even on filesystems with coarse mtimes.
	if err := b.PutCostSamples(sampleWindow(24)); err != nil {
		t.Fatal(err)
	}
	fits := a.ModelFitCount()
	if _, s := a.FittedCostModel(); len(s) != 24 {
		t.Fatalf("stale memo served after external rewrite: %d samples", len(s))
	}
	if got := a.ModelFitCount(); got != fits+1 {
		t.Fatalf("external change must force exactly one re-fit: %d -> %d", fits, got)
	}
}

// TestFittedModelNoDiskTier: memory-only caches fall back to the static
// model without touching the memo machinery.
func TestFittedModelNoDiskTier(t *testing.T) {
	c := New(1 << 20)
	m, s := c.FittedCostModel()
	if m.Fitted || s != nil {
		t.Fatalf("no disk tier must yield the static model and no samples: %+v %v", m, s)
	}
}
