package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/source"
)

const (
	microCalls = 200 // timed calls per micro-timing; the median is reported
	batchItems = 8   // items of the warm batch request
)

// timeCalls returns the median duration of n calls of f.
func timeCalls(n int, f func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// microTimings times single calls into cluster, fcache and sched that no
// ParallelStats field isolates: a request that every tier answers from cache
// costs its framing and round trip and nothing else. It uses pools and
// caches of its own, so the workload's are left as the builds left them.
func (e *env) microTimings(out map[string]float64) error {
	ctx := context.Background()
	cache := fcache.New(0)
	dir := filepath.Join(e.dir, "micro")
	if err := cache.AttachDisk(dir, 0); err != nil {
		return err
	}
	h := fcache.HashSource(e.src)
	fe := compiler.FrontendEntryCached(cache, h, e.file, e.src)

	// The program's shortest function: warming it costs one small compile.
	req := core.CompileRequest{File: e.file, Source: e.src, SourceHash: h}
	best, i := -1, 0
	for _, sec := range fe.Module.Sections {
		for idx := range sec.Funcs {
			if lines := e.ref.Funcs[i].Lines; best < 0 || lines < best {
				best = lines
				req.Section, req.Index = sec.Index, idx
			}
			i++
		}
	}
	req.FuncHash = fe.FuncHashes[fcache.FuncKey{Section: req.Section, Index: req.Index}]
	batch := core.BatchRequest{File: e.file, Source: e.src, SourceHash: h}
	for len(batch.Items) < batchItems {
		batch.Items = append(batch.Items, core.BatchItem{Section: req.Section, Index: req.Index, FuncHash: req.FuncHash})
	}

	local := cluster.NewLocalPoolWith(1, cache)
	if _, err := local.Compile(ctx, req); err != nil {
		return fmt.Errorf("micro: warming: %w", err)
	}
	d, err := timeCalls(microCalls, func() error { _, err := local.Compile(ctx, req); return err })
	if err != nil {
		return err
	}
	out["cluster.local_call_us"] = us(d)

	ws, err := cluster.NewWorkerServer("127.0.0.1:0", 0)
	if err != nil {
		return err
	}
	defer ws.Close()
	rpc, err := cluster.DialPool([]string{ws.Addr()})
	if err != nil {
		return err
	}
	defer rpc.Close()
	if _, err := rpc.Compile(ctx, req); err != nil {
		return fmt.Errorf("micro: warming the worker: %w", err)
	}
	if d, err = timeCalls(microCalls, func() error { _, err := rpc.Compile(ctx, req); return err }); err != nil {
		return err
	}
	out["cluster.rpc_call_us"] = us(d)
	if d, err = timeCalls(microCalls, func() error { _, err := rpc.CompileBatch(ctx, batch); return err }); err != nil {
		return err
	}
	out["cluster.rpc_batch_call_us"] = us(d)
	if f := rpc.FaultStats(); f.Any() {
		return fmt.Errorf("micro: faults on loopback: %s", f)
	}

	// fcache: a memory hit, a disk hit from a cache that has just attached
	// the warm directory, and a write-through put of a record-sized entry.
	entry, ok := compiler.LookupObject(cache, req.FuncHash, compiler.Options{})
	if !ok {
		return fmt.Errorf("micro: the warmed object is not in the cache")
	}
	const probes = 20000
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		cache.PeekObject(req.FuncHash, compiler.OptsKey(compiler.Options{}))
	}
	out["fcache.mem_probe_ns"] = float64(time.Since(t0).Nanoseconds()) / probes

	// Timed by hand: AttachDisk's directory scan is not part of a probe.
	probe := make([]float64, microCalls/4)
	for i := range probe {
		fresh := fcache.New(0)
		if err := fresh.AttachDisk(dir, 0); err != nil {
			return err
		}
		t := time.Now()
		_, ok := compiler.LookupObject(fresh, req.FuncHash, compiler.Options{})
		probe[i] = float64(time.Since(t))
		if !ok {
			return fmt.Errorf("micro: disk probe missed")
		}
	}
	out["fcache.disk_probe_us"] = us(time.Duration(median(probe)))

	n := uint64(0)
	if d, err = timeCalls(microCalls/4, func() error {
		n++
		var seed [16]byte
		binary.LittleEndian.PutUint64(seed[:], e.cfg.seed)
		binary.LittleEndian.PutUint64(seed[8:], n)
		_, err := cache.Object(fcache.FuncHash(sha256.Sum256(seed[:])), "default", func() (*fcache.ObjectEntry, error) {
			return &fcache.ObjectEntry{Name: entry.Name, Section: entry.Section, IsEntry: entry.IsEntry,
				Lines: entry.Lines, ObjectBytes: entry.ObjectBytes, Warnings: entry.Warnings}, nil
		})
		return err
	}); err != nil {
		return err
	}
	out["fcache.disk_put_us"] = us(d)
	files, err := filepath.Glob(filepath.Join(dir, "o-*.wfc"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("micro: no records in %s (%v)", dir, err)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		return err
	}
	out["fcache.record_bytes"] = float64(st.Size())

	// sched: planning the workload's tasks, as a section master does.
	var bag source.DiagBag
	outline := parser.ParseOutline(e.file, e.src, &bag)
	if outline == nil || bag.HasErrors() {
		return fmt.Errorf("micro: outline: %s", bag.String())
	}
	tasks := core.Tasks(outline)
	if d, err = timeCalls(microCalls, func() error {
		sched.PlanCosted(sched.StaticModel().Costs(tasks), core.DefaultBatchThreshold, e.cfg.workers)
		return nil
	}); err != nil {
		return err
	}
	out["sched.plan_ms"] = ms(d)

	if e.w.daemon {
		if d, err = timeCalls(microCalls, func() error { return e.clients[0].Ping(ctx) }); err != nil {
			return err
		}
		out["service.ping_rtt_us"] = us(d)
	}
	return nil
}
