package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/sched"
)

// SectionFunc is one function's combined result inside a SectionResult,
// stored at its declaration index. Keeping the object, line count, and CPU
// time in one slot makes a request/reply skew a hard error instead of a
// silently zeroed field.
type SectionFunc struct {
	Name    string
	Object  *asm.Object
	Lines   int
	CPUTime time.Duration
	// Warnings are this function master's diagnostics, re-emitted by the
	// section master in declaration order.
	Warnings []string
}

// SectionResult is what one section master hands back to the master.
type SectionResult struct {
	Section int
	// Funcs holds one slot per declared function, in declaration order.
	Funcs []SectionFunc
	// CPUTime totals the function masters' compile times; MasterTime is the
	// section master's own coordination time; PlanTime the slice of it spent
	// computing the dispatch schedule.
	CPUTime    time.Duration
	MasterTime time.Duration
	PlanTime   time.Duration
	// Units counts dispatch units sent; Batches the multi-function units
	// among them; BatchedFuncs the functions that traveled inside batches.
	Units        int
	Batches      int
	BatchedFuncs int
	// Unchanged counts functions the section master short-circuited from the
	// local object tier before planning any dispatch; WorkerHits counts
	// dispatched functions a worker answered from its own object tier
	// without running phases 2+3.
	Unchanged  int
	WorkerHits int
	// Warnings are all function masters' warnings in declaration order.
	Warnings []string
}

// unitDone is one dispatch unit's outcome, streamed back to the section
// master as it completes.
type unitDone struct {
	unit    sched.Unit
	replies []*CompileReply
	err     error
}

// runSectionMaster plans the section's dispatch units from the structural
// outline (large functions first, small ones batched under the cost
// threshold), submits them to the fleet, and combines objects and
// diagnostics incrementally as replies stream in — asm.Decode overlaps
// the slowest in-flight compiles instead of serializing after a
// whole-section barrier. Output (objects, warnings) is emitted in
// declaration order regardless of arrival order.
//
// Before planning anything, the section master probes masterCache's object
// tier with each function's incremental hash: unchanged functions are
// answered on the spot and never reach sched.Plan, so the cost model only
// schedules the functions that genuinely need compiling.
//
// The planned units feed the fleet's queue through the build handle in plan
// order; each one is one backend call, delivered whole. Units finish in any
// order, so emission stays keyed by declaration index.
func runSectionMaster(ctx context.Context, file string, src []byte, srcHash fcache.SourceHash, so parser.SectionOutline, backend Backend, masterCache *fcache.Cache, build *sched.Build, opts compiler.Options, popts ParallelOptions) (*SectionResult, error) {
	t0 := time.Now()
	res := &SectionResult{
		Section: so.Index,
		Funcs:   make([]SectionFunc, len(so.Functions)),
	}
	tasks := make([]sched.Task, 0, len(so.Functions))
	for i, fo := range so.Functions {
		if entry, ok := compiler.LookupObject(masterCache, fcache.FuncHash(fo.Hash), opts); ok && entry.Name == fo.Name {
			if obj, err := entry.Object(); err == nil {
				res.Funcs[i] = SectionFunc{
					Name:     entry.Name,
					Object:   obj,
					Lines:    entry.Lines,
					Warnings: entry.Warnings,
				}
				res.Unchanged++
				continue
			}
			// An undecodable cached object is treated as a miss: recompile.
		}
		tasks = append(tasks, sched.Task{
			Name:      fo.Name,
			Section:   fo.Section,
			Index:     fo.Index,
			Lines:     fo.Lines,
			LoopDepth: fo.LoopDepth,
		})
	}
	units := sched.Plan(tasks, popts.planThreshold(), backend.Workers())
	res.Units = len(units)
	for _, u := range units {
		if u.IsBatch() {
			res.Batches++
			res.BatchedFuncs += len(u.Tasks)
		}
	}
	res.PlanTime = time.Since(t0)

	// Every unit — one function or many — is one backend call.
	dispatch := func(u sched.Unit) ([]*CompileReply, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		items := make([]BatchItem, len(u.Tasks))
		for i, t := range u.Tasks {
			items[i] = BatchItem{Section: t.Section, Index: t.Index, FuncHash: fcache.FuncHash(so.Functions[t.Index].Hash)}
		}
		return backend.CompileBatch(ctx, BatchRequest{
			File:       file,
			Source:     src,
			SourceHash: srcHash,
			Items:      items,
			Opts:       opts,
		})
	}

	// The channel is buffered to len(units) so deliveries never block on
	// send: an early error return leaks no goroutines.
	done := make(chan unitDone, len(units))
	deliver := func(u sched.Unit) {
		replies, err := dispatch(u)
		done <- unitDone{unit: u, replies: replies, err: err}
	}
	build.Submit(units, deliver)

	// Streaming combine: decode each object the moment its reply lands.
	// Slots are keyed by declaration index, so any request/reply skew —
	// wrong count, wrong name, duplicate index — is a hard error, never a
	// silently zeroed field.
	for range units {
		d := <-done
		if d.err != nil {
			return nil, d.err
		}
		if len(d.replies) != len(d.unit.Tasks) {
			return nil, fmt.Errorf("dispatch skew: %d replies for %d functions", len(d.replies), len(d.unit.Tasks))
		}
		for k, r := range d.replies {
			t := d.unit.Tasks[k]
			if r == nil || r.Name != t.Name {
				got := "<nil>"
				if r != nil {
					got = r.Name
				}
				return nil, fmt.Errorf("dispatch skew: expected reply for %s, got %s", t.Name, got)
			}
			if t.Index < 0 || t.Index >= len(res.Funcs) || res.Funcs[t.Index].Object != nil {
				return nil, fmt.Errorf("dispatch skew: duplicate or out-of-range index %d for %s", t.Index, t.Name)
			}
			obj, err := asm.Decode(r.ObjectBytes)
			if err != nil {
				return nil, fmt.Errorf("decoding object %s: %w", r.Name, err)
			}
			res.Funcs[t.Index] = SectionFunc{
				Name:     r.Name,
				Object:   obj,
				Lines:    r.Lines,
				CPUTime:  r.CPUTime,
				Warnings: r.Warnings,
			}
			res.CPUTime += r.CPUTime
			if r.CacheHit {
				res.WorkerHits++
			}
		}
	}

	// Emit warnings in declaration order regardless of arrival order, and
	// verify every declared function produced exactly one object.
	for i := range res.Funcs {
		if res.Funcs[i].Object == nil {
			return nil, fmt.Errorf("dispatch skew: no object for function %s", so.Functions[i].Name)
		}
		res.Warnings = append(res.Warnings, res.Funcs[i].Warnings...)
	}
	res.MasterTime = time.Since(t0) - res.CPUTime
	if res.MasterTime < 0 {
		res.MasterTime = 0
	}
	return res, nil
}

// Tasks converts an outline to scheduler tasks (for grouped placement).
func Tasks(o *parser.Outline) []sched.Task {
	var out []sched.Task
	for _, so := range o.Sections {
		for _, fo := range so.Functions {
			out = append(out, sched.Task{
				Name:      fo.Name,
				Section:   fo.Section,
				Index:     fo.Index,
				Lines:     fo.Lines,
				LoopDepth: fo.LoopDepth,
			})
		}
	}
	return out
}
