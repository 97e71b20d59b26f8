// Package core implements the parallel compiler: the three-level process
// hierarchy of the paper mapped onto Go's concurrency primitives.
//
//	master          (one)           parses the module's structure, forks
//	                                the section masters speculatively while
//	                                its own frontend races them, links each
//	                                section as it streams in, and cancels
//	                                the fleet on the first fatal error.
//	section masters (one/section)   plan dispatch units from the structural
//	                                outline (large functions first, small
//	                                ones batched), queue them on the one
//	                                dispatch fleet in plan order, then
//	                                combine objects and diagnostics as
//	                                replies stream in.
//	function masters(one/function)  run phases 2+3 for one function on
//	                                some workstation of the backend.
//
// Processes on the same level never communicate, only parent and child do —
// exactly the paper's structure. Workstations are abstracted behind the
// Backend interface: internal/cluster provides an in-process pool
// (goroutines) and a distributed pool (net/rpc worker processes).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/iodriver"
	"repro/internal/link"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/source"
)

// SchedPolicy selects the dispatch-ordering strategy.
type SchedPolicy string

const (
	// SchedFCFS dispatches one request per function in declaration order,
	// each to the next free slot — the paper's measured system.
	SchedFCFS SchedPolicy = "fcfs"
	// SchedLPT orders dispatch by estimated cost, largest first, and packs
	// functions below the batch threshold into shared batches — the paper's
	// §4.3 improvement, productionized.
	SchedLPT SchedPolicy = "lpt"
)

// DefaultBatchThreshold is the estimated-cost cutoff below which functions
// are packed into shared batches. Calibrated against wgen's size classes:
// Small (~35 lines, cost ≈ 45) batches, a 300-line main (cost ≈ 500) never
// does.
const DefaultBatchThreshold = 100.0

// ParallelOptions selects the dispatch policy of a parallel compilation.
// The zero value means production defaults: LPT ordering with batching at
// DefaultBatchThreshold. Every policy runs on the same fleet, which serves
// the plan's units first-come-first-served from one queue; a policy only
// decides the order and grouping of the units it queues.
type ParallelOptions struct {
	// Sched is the ordering policy; empty means SchedLPT.
	Sched SchedPolicy
	// BatchThreshold is the estimated-cost cutoff for batching: 0 means
	// DefaultBatchThreshold, negative disables batching (one request per
	// function). Ignored under SchedFCFS, which never batches.
	BatchThreshold float64
	// FrontendWorkers bounds the fan-out of the master's parallel frontend
	// (compiler.FrontendParallel); <1 means GOMAXPROCS, 1 is the serial
	// setting.
	FrontendWorkers int

	// fleet, when non-nil, is a daemon-lifetime shared dispatch fleet this
	// build dispatches through instead of constructing its own; tenant is
	// the fair-share identity its units are tagged with (the same client
	// identity the daemon's Admitter queues by). Unexported on purpose:
	// the handle is set server-side via WithFleet and never crosses the
	// wire — gob skips unexported fields, so clients submit plain options
	// and dedup keys built from wire options stay fleet-free.
	fleet  *sched.Fleet
	tenant string
}

// WithFleet returns a copy of the options that dispatches through the given
// shared fleet under the given fair-share tenant identity. The daemon calls
// this after admission; standalone builds never do and keep their private
// per-build fleet.
func (o ParallelOptions) WithFleet(f *sched.Fleet, tenant string) ParallelOptions {
	o.fleet = f
	o.tenant = tenant
	return o
}

// normalized resolves the zero-value defaults.
func (o ParallelOptions) normalized() ParallelOptions {
	if o.Sched == "" {
		o.Sched = SchedLPT
	}
	if o.BatchThreshold == 0 {
		o.BatchThreshold = DefaultBatchThreshold
	}
	return o
}

// planThreshold maps the user-facing options onto sched.Plan's threshold
// convention (0 = FCFS singletons, <0 = LPT singletons, >0 = LPT+batch).
func (o ParallelOptions) planThreshold() float64 {
	o = o.normalized()
	if o.Sched == SchedFCFS {
		return 0
	}
	if o.BatchThreshold < 0 {
		return -1
	}
	return o.BatchThreshold
}

// ParallelCompile runs the full parallel compiler on src using the backend's
// processors with production dispatch defaults (LPT ordering, batching at
// DefaultBatchThreshold).
func ParallelCompile(file string, src []byte, backend Backend, opts compiler.Options) (*compiler.Result, *ParallelStats, error) {
	return ParallelCompileWith(file, src, backend, opts, ParallelOptions{})
}

// ParallelCompileWith runs the full parallel compiler with an explicit
// dispatch policy.
func ParallelCompileWith(file string, src []byte, backend Backend, opts compiler.Options, popts ParallelOptions) (*compiler.Result, *ParallelStats, error) {
	return ParallelCompileContext(context.Background(), file, src, backend, opts, popts)
}

// frontendVerdict is the master's own phase-1 leg, delivered to the combine
// loop when it finishes racing the speculatively dispatched sections. err is
// non-nil only when the leg was cancelled (the parallel frontend's sole
// error mode); timing reports the parallel frontend's internal wall times
// (zero on frontend-tier cache hits).
type frontendVerdict struct {
	m      *ast.Module
	bag    *source.DiagBag
	err    error
	time   time.Duration
	timing compiler.FrontendTiming
}

// masterFrontend claims the master's own phase-1 leg: the frontend-tier
// entry of src, built on a miss by the parallel frontend from the setup
// parse's outline — its tree is checked rather than parsed again, and its
// hashes and calls become the entry's. The tier's slot for h is taken when
// masterFrontend is called; the returned function, called exactly once,
// builds the entry (or returns or waits for a cached or in-flight one).
func masterFrontend(ctx context.Context, cache *fcache.Cache, h fcache.SourceHash, file string, src []byte, outline *parser.Outline, workers int) func() (*fcache.FrontendEntry, compiler.FrontendTiming, error) {
	var timing compiler.FrontendTiming
	run := compiler.ClaimFrontendEntry(ctx, cache, h, file, src, compiler.FrontendOptions{
		Parallel: true,
		Workers:  workers,
		Outline:  outline,
		Timing:   &timing,
	})
	return func() (*fcache.FrontendEntry, compiler.FrontendTiming, error) {
		fe, err := run()
		return fe, timing, err
	}
}

// sectionDone is one section master's outcome, streamed to the combine loop
// as it completes (pos indexes outline.Sections).
type sectionDone struct {
	pos int
	res *SectionResult
	err error
}

// ParallelCompileContext runs the full parallel compiler as an overlapped
// pipeline rather than the paper's four sequential steps:
//
//   - Speculative dispatch: section masters fork the moment the structural
//     parse succeeds, while the master's full frontend runs concurrently.
//     Function masters re-derive phase 1 themselves, so they reach the same
//     verdict on the same source; if the frontend finds semantic errors the
//     master cancels the fleet and reports the frontend's diagnostics,
//     word-identical to the sequential compiler's.
//   - Streaming tail: section results are linked the moment they arrive
//     (link.Builder), so linking overlaps the slowest section instead of
//     waiting behind a barrier, and the I/O driver — which depends only on
//     the frontend module — is generated concurrently too.
//   - End-to-end cancellation: ctx is threaded through every backend call;
//     the first fatal error (or the caller cancelling ctx) severs in-flight
//     RPCs instead of waiting out the stragglers.
//
// Output is byte-identical to the sequential compiler.
func ParallelCompileContext(ctx context.Context, file string, src []byte, backend Backend, opts compiler.Options, popts ParallelOptions) (*compiler.Result, *ParallelStats, error) {
	start := time.Now()
	popts = popts.normalized()
	stats := &ParallelStats{
		FuncCPU:    make(map[string]time.Duration),
		SectionCPU: make(map[int]time.Duration),
		Workers:    backend.Workers(),
		Dispatch: DispatchStats{
			Policy:         popts.Sched,
			BatchThreshold: popts.BatchThreshold,
		},
	}

	// Master, step 1: the extra structural parse that drives partitioning
	// ("setup time" in the paper's overhead accounting). This is the only
	// part of the head that cannot overlap anything: every leg needs the
	// outline.
	t0 := time.Now()
	var outlineBag source.DiagBag
	outline := parser.ParseOutline(file, src, &outlineBag)
	stats.SetupTime = time.Since(t0)
	if outlineBag.HasErrors() || outline == nil {
		return nil, stats, fmt.Errorf("master: syntax errors, compilation aborted:\n%s", outlineBag.String())
	}

	// The content address travels with every request; workers use it to
	// avoid re-parsing and re-sending the source.
	srcHash := fcache.HashSource(src)
	masterCache := backend.Cache()

	// The dispatch fleet: one queue and one set of dispatch slots shared by
	// every section master, so a straggler section's units are served by
	// whichever slot comes free first. A standalone build sizes a private
	// fleet to the backend and retires it on the way out; under warpd the
	// daemon injects its daemon-lifetime fleet and this build only opens a
	// tagged handle on it — completion waits on the build's own units,
	// never the fleet's. Registered before cancel() so
	// the deferred LIFO runs cancel first: whatever of this build is still
	// queued when we unwind is dropped by Build.Close as cancelled orphans,
	// and its in-flight units drain as immediate no-ops.
	fleet := popts.fleet
	stats.Steal.Shared = fleet != nil
	if fleet == nil {
		fleet = sched.NewFleet(backend.Workers())
		defer fleet.Close()
	}
	build := fleet.Open(popts.tenant)
	defer build.Close()
	idleBase := fleet.IdleTime()

	// The pipeline context: the first fatal error — or the caller's own
	// cancellation — severs every other in-flight leg through it. The
	// frontend leg is the exception: it answers to the caller's context
	// only, because its verdict is authoritative — when speculative dispatch
	// loses its bet, the fleet's errors are echoes and the abort message
	// must carry the frontend's diagnostics, word-identical to the
	// sequential compiler's. A failing section therefore severs the fleet
	// but lets the (in-process, cheap) frontend leg finish.
	callerCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Speculative dispatch: the outline alone is enough to plan and fork
	// section masters, so the master's frontend runs concurrently with the
	// fleet instead of ahead of it. The leg claims the frontend tier's slot
	// for srcHash before any section master forks: an in-process worker that
	// needs the entry then waits on this leg instead of parsing the source
	// a second time.
	frontend := masterFrontend(callerCtx, masterCache, srcHash, file, src, outline, popts.FrontendWorkers)
	feCh := make(chan frontendVerdict, 1)
	go func() {
		t := time.Now()
		fe, timing, err := frontend()
		if err != nil {
			feCh <- frontendVerdict{err: err, time: time.Since(t)}
			return
		}
		feCh <- frontendVerdict{m: fe.Module, bag: fe.Bag, time: time.Since(t), timing: timing}
	}()
	secCh := make(chan sectionDone, len(outline.Sections))
	regionStart := time.Now()
	for i, so := range outline.Sections {
		go func(i int, so parser.SectionOutline) {
			r, err := runSectionMaster(ctx, file, src, srcHash, so, backend, masterCache, build, opts, popts)
			secCh <- sectionDone{pos: i, res: r, err: err}
		}(i, so)
	}
	type driverDone struct {
		drv  *iodriver.Driver
		time time.Duration
	}
	drvCh := make(chan driverDone, 1)

	var (
		m      *ast.Module
		bag    *source.DiagBag
		feDone bool
	)

	// The combine loop: consume legs as they complete. Each section is
	// linked the moment it arrives; the frontend verdict gates success and
	// releases the I/O-driver leg.
	builder := link.NewBuilder(outline.Module)
	secResults := make([]*SectionResult, len(outline.Sections))
	secErrs := make([]error, len(outline.Sections))
	remaining := len(outline.Sections)
	var feErr error
	for remaining > 0 || !feDone {
		select {
		case fe := <-feCh:
			feDone = true
			stats.FrontendTime = fe.time
			stats.Pipeline.FrontendCheckWall = fe.timing.CheckWall
			stats.Pipeline.FrontendWorkers = fe.timing.Workers
			if fe.err != nil {
				// The frontend leg was cancelled — by the caller, or by a
				// failing section severing the pipeline. Keep draining; the
				// error selection below decides what to report.
				feErr = fe.err
				cancel()
				continue
			}
			if fe.bag.HasErrors() {
				// Speculative dispatch lost its bet: sever the in-flight
				// compiles, drain the fleet, and report the frontend's
				// diagnostics. The sections' own errors are echoes of the
				// same source, so the frontend verdict takes precedence.
				cancel()
				for remaining > 0 {
					<-secCh
					remaining--
				}
				return nil, stats, fmt.Errorf("master: front-end errors, compilation aborted:\n%s", fe.bag.String())
			}
			m, bag = fe.m, fe.bag
			go func() {
				t := time.Now()
				d := iodriver.Generate(fe.m)
				drvCh <- driverDone{drv: d, time: time.Since(t)}
			}()
		case d := <-secCh:
			remaining--
			if remaining == 0 {
				// Fork of the first section master to the last section's
				// completion.
				stats.CompileWallTime = time.Since(regionStart)
			}
			secResults[d.pos], secErrs[d.pos] = d.res, d.err
			if d.err != nil {
				cancel() // first fatal error severs the siblings
				continue
			}
			lt := time.Now()
			err := builder.Add(outline.Sections[d.pos].Index, sectionObjects(d.res))
			ldur := time.Since(lt)
			stats.Pipeline.LinkTime += ldur
			if remaining > 0 {
				stats.Pipeline.LinkOverlap += ldur
			}
			if err != nil {
				secErrs[d.pos] = err
				cancel()
			}
		}
	}

	// Error selection: the first failing section in outline order wins.
	// Cancellation echoes from severed siblings (or from the caller's own
	// ctx) never mask a genuine error.
	var cancelled error
	for i, err := range secErrs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = fmt.Errorf("section %d: %w", outline.Sections[i].Index, err)
			}
			continue
		}
		return nil, stats, fmt.Errorf("section %d: %w", outline.Sections[i].Index, err)
	}
	if feErr != nil {
		// No section reported a genuine error, so the cancellation originated
		// outside the fleet (the caller's ctx); the frontend leg saw it first.
		return nil, stats, fmt.Errorf("master: frontend: %w", feErr)
	}
	if cancelled != nil {
		return nil, stats, cancelled
	}

	// Combine the section masters' results in declaration order. Warnings
	// are merged in section order — the paper's "combining diagnostic
	// output" step — and every reconstructed FuncResult carries a non-nil
	// (if empty) DiagBag, because the structured diagnostics cannot cross
	// the process boundary.
	var funcResults []*compiler.FuncResult
	var warnings []string
	warnings = append(warnings, compiler.FrontendWarnings(m, bag, nil)...)
	for _, r := range secResults {
		stats.SectionCPU[r.Section] = r.MasterTime
		stats.DispatchTime += r.PlanTime
		stats.Dispatch.Units += r.Units
		stats.Dispatch.Batches += r.Batches
		stats.Dispatch.BatchedFuncs += r.BatchedFuncs
		stats.Dispatch.UnchangedFuncs += r.Unchanged
		stats.Dispatch.IncrementalHits += r.WorkerHits
		warnings = append(warnings, r.Warnings...)
		for _, sf := range r.Funcs {
			stats.FuncCPU[fmt.Sprintf("s%d/%s", r.Section, sf.Name)] = sf.CPUTime
			funcResults = append(funcResults, &compiler.FuncResult{
				Name:    sf.Name,
				Section: sf.Object.Section,
				IsEntry: sf.Object.IsEntry,
				Object:  sf.Object,
				Lines:   sf.Lines,
				CPUTime: sf.CPUTime,
				Diags:   &source.DiagBag{},
			})
		}
	}
	stats.Warnings = len(warnings)
	stats.Dispatch.RankCorr = estimatorAccuracy(outline, stats.FuncCPU)
	// All sections combined: every one of this build's units has been
	// delivered, so Close (idempotent with the deferred one) settles the
	// handle without waiting on sibling builds. A private fleet is retired
	// outright so its idle decomposition ends at the last unit rather than
	// accumulating through the link tail; on a shared fleet the idle delta
	// since Open approximates this job's window.
	build.Close()
	if !stats.Steal.Shared {
		fleet.Close()
		fleet.Wait()
	}
	stats.Steal.IdleTime = idleDelta(fleet.IdleTime(), idleBase)
	if total := outline.NumFunctions(); total > 0 {
		stats.Dispatch.RecompiledFuncs = total - stats.Dispatch.UnchangedFuncs - stats.Dispatch.IncrementalHits
		stats.Dispatch.RecompileRatio = float64(stats.Dispatch.RecompiledFuncs) / float64(total)
	}

	// Master, step 4: what remains of the sequential tail. The sections are
	// already linked and the driver leg is in flight — only ordering the
	// cell images and collecting the driver are left.
	t3 := time.Now()
	linked, err := builder.Finish()
	if err != nil {
		return nil, stats, err
	}
	dd := <-drvCh
	stats.Pipeline.DriverTime = dd.time
	res := &compiler.Result{
		ModuleName: m.Name,
		Module:     linked,
		Driver:     dd.drv,
		Funcs:      funcResults,
		Warnings:   warnings,
	}
	stats.BackendTail = time.Since(t3)
	stats.Elapsed = time.Since(start)
	stats.Pipeline.FrontendOverlap = min(stats.FrontendTime, stats.CompileWallTime)
	stats.Pipeline.CriticalPath = stats.SetupTime + max(stats.FrontendTime, stats.CompileWallTime) + stats.BackendTail
	if cs, ok := backend.(CacheStatser); ok {
		stats.Cache = cs.CacheStats()
	}
	if fs, ok := backend.(FaultStatser); ok {
		stats.Faults = fs.FaultStats()
	}
	return res, stats, nil
}

// sectionObjects extracts a section result's objects in declaration order
// for the linker.
func sectionObjects(r *SectionResult) []*asm.Object {
	objs := make([]*asm.Object, len(r.Funcs))
	for i := range r.Funcs {
		objs[i] = r.Funcs[i].Object
	}
	return objs
}

// VerifySameOutput checks that a parallel compilation produced exactly the
// same download module as the sequential compiler — the paper's requirement
// that "the parallel compiler produces the same input for the assembly
// phase as the sequential compiler". Returns an error describing the first
// difference.
func VerifySameOutput(seq, par *link.Module) error {
	if len(seq.Cells) != len(par.Cells) {
		return fmt.Errorf("cell count differs: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if len(a.Code) != len(b.Code) {
			return fmt.Errorf("cell %d code size differs: %d vs %d", i, len(a.Code), len(b.Code))
		}
		for w := range a.Code {
			if a.Code[w] != b.Code[w] {
				return fmt.Errorf("cell %d word %d differs:\n  seq: %s\n  par: %s", i, w, a.Code[w], b.Code[w])
			}
		}
		if a.DataWords != b.DataWords {
			return fmt.Errorf("cell %d data size differs", i)
		}
	}
	return nil
}
