package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one build
// (or one replayed function) share Build; Parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Build   string `json:"build"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children's parent.
func (r *recorder) begin(name, build string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, Build: build})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover. The harness's child
// spans of one parent never overlap, so the cover is their summed duration.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[i])
	}
	return out
}

// write stores the spans as one JSON file.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
