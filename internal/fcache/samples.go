package fcache

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sched"
)

// Cost-sample persistence: the scheduler's observed (function shape →
// measured seconds) samples live in the disk tier's directory as one record,
// so the self-tuning cost model survives restarts alongside the objects it
// schedules. The file reuses the object tier's checksummed diskRecord framing
// but is named outside the o-*.wfc namespace, so the tier's scan, index, and
// LRU eviction never touch it: eviction pressure on objects cannot throw the
// estimator's memory away.
const (
	costSamplesFile = "cost-samples.wfc"
	costSamplesKey  = "cost-samples/v1"
)

// CostSampleWindow bounds how many samples persist: enough to cover several
// large modules, small enough that the fit stays responsive to drift.
const CostSampleWindow = 512

// CostSamples loads the persisted cost-sample window. It returns nil when no
// disk tier is attached, the record does not exist yet, or the record is
// corrupt — a corrupt record is deleted and counted in Stats.DiskErrors, and
// the caller falls back to the static cost model. Cache trouble must never
// fail a compilation, so there is no error return.
func (c *Cache) CostSamples() []sched.CostSample {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return nil
	}
	path := filepath.Join(d.dir, costSamplesFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // no samples recorded yet
	}
	corrupt := func() []sched.CostSample {
		os.Remove(path)
		c.mu.Lock()
		c.stats.DiskErrors++
		c.mu.Unlock()
		return nil
	}
	key, payload, err := DecodeRecord(data)
	if err != nil || key != costSamplesKey {
		return corrupt()
	}
	var samples []sched.CostSample
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&samples); err != nil {
		return corrupt()
	}
	return samples
}

// costModelMemo caches the fitted cost model for the daemon's lifetime,
// keyed on the samples record's stat. One daemon serves many jobs off one
// cache, so the memo turns the per-job "read 512 samples, regress, rank"
// into a stat call whenever nothing changed; PutCostSamples refreshes it
// in place so the next job sees the updated fit without touching disk.
type costModelMemo struct {
	valid   bool
	size    int64
	mtime   time.Time
	model   sched.Model
	samples []sched.CostSample
	fits    int64 // how many times Fit actually ran (test/diagnostic hook)
}

// FittedCostModel returns the scheduler cost model fitted over the
// persisted sample window plus a private copy of the window itself,
// memoized on the record file's (size, mtime). An external writer that
// lands between the stat and the read can leave the memo one write stale;
// the next call's stat catches it — samples are a scheduling hint, so a
// briefly stale fit is harmless. A cache without a disk tier yields the
// static model, like CostSamples.
func (c *Cache) FittedCostModel() (sched.Model, []sched.CostSample) {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return sched.Fit(nil), nil
	}
	st, err := os.Stat(filepath.Join(d.dir, costSamplesFile))
	if err != nil {
		return sched.Fit(nil), nil // no samples recorded yet
	}
	c.mu.Lock()
	if c.model.valid && c.model.size == st.Size() && c.model.mtime.Equal(st.ModTime()) {
		m := c.model.model
		s := append([]sched.CostSample(nil), c.model.samples...)
		c.mu.Unlock()
		return m, s
	}
	c.mu.Unlock()
	samples := c.CostSamples() // full checksummed read; handles corruption
	model := sched.Fit(samples)
	c.memoizeModel(st, model, samples)
	return model, append([]sched.CostSample(nil), samples...)
}

// ModelFitCount reports how many times this cache actually ran the cost
// fit (as opposed to serving the memo) — a diagnostic for tests.
func (c *Cache) ModelFitCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model.fits
}

// memoizeModel installs a freshly fitted model. The memo keeps its own
// copy of the sample slice: callers of FittedCostModel append observed
// samples to what they got back, and PutCostSamples truncates in place —
// neither may alias the memo's backing array.
func (c *Cache) memoizeModel(st os.FileInfo, model sched.Model, samples []sched.CostSample) {
	c.mu.Lock()
	c.model = costModelMemo{
		valid:   true,
		size:    st.Size(),
		mtime:   st.ModTime(),
		model:   model,
		samples: append([]sched.CostSample(nil), samples...),
		fits:    c.model.fits + 1,
	}
	c.mu.Unlock()
}

// PutCostSamples persists the sample window (truncated to the most recent
// CostSampleWindow entries), replacing any previous record via the disk
// tier's tmp+rename protocol so readers only ever observe complete records.
// A cache without a disk tier is a silent no-op: samples are a scheduling
// hint, not a correctness artifact.
func (c *Cache) PutCostSamples(samples []sched.CostSample) error {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return nil
	}
	if len(samples) > CostSampleWindow {
		samples = samples[len(samples)-CostSampleWindow:]
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(samples); err != nil {
		return err
	}
	data, err := EncodeRecord(costSamplesKey, payload.Bytes())
	if err != nil {
		return err
	}
	path := filepath.Join(d.dir, costSamplesFile)
	if err := atomicWrite(d.dir, path, data); err != nil {
		return err
	}
	// Refresh the memo eagerly: the writer already holds the trimmed window
	// in memory, and re-fitting ~CostSampleWindow samples is microseconds —
	// the next FittedCostModel call is then a pure stat hit.
	if st, err := os.Stat(path); err == nil {
		c.memoizeModel(st, sched.Fit(samples), samples)
	}
	return nil
}
