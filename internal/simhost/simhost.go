// Package simhost simulates the paper's host system — a network of diskless
// SUN workstations sharing one Ethernet segment and one file server — and
// runs the sequential and parallel compiler process structures on it in
// virtual time.
//
// The real Go compiler (internal/compiler, internal/core) proves the
// parallel decomposition correct; this simulation reproduces the paper's
// *timing* behaviour, which a modern machine cannot exhibit natively:
// minutes-scale compiles, Lisp core-image downloads, garbage collection,
// and paging of over-large working sets to the file server. All costs come
// from one calibrated parameter set (internal/costmodel).
package simhost

import (
	"repro/internal/costmodel"
	"repro/internal/des"
	"repro/internal/parser"
	"repro/internal/sched"
)

// SeqTimes is the outcome of a simulated sequential compilation.
type SeqTimes struct {
	Elapsed float64 // wall-clock ("user time" in the paper)
	CPU     float64 // processor time on the single workstation
	SwapSec float64 // time lost to paging (part of Elapsed)
	GCSec   float64 // garbage collection (part of CPU)
}

// ParTimes is the outcome of a simulated parallel compilation, with the
// decomposition the paper's overhead analysis needs (§4.2.3).
type ParTimes struct {
	Elapsed float64
	// Implementation overhead: the extra work the parallel compiler does.
	SetupSec   float64 // master's structural parse
	SchedSec   float64 // master's coordination of section masters
	SectionSec float64 // section masters (startup + combining)
	// Per-processor CPU time: the largest single function master's CPU
	// (the paper plots CPU time "on a per-processor basis").
	MaxProcCPU float64
	// System overhead components, summed over all function masters.
	StartupSec  float64 // Lisp process creation
	DownloadSec float64 // core-image transfer incl. queueing
	SwapSec     float64 // paging incl. queueing on Ethernet/file server
	GCSec       float64
	WaitSec     float64 // waiting for a free workstation
	// FuncCPU is each function master's CPU seconds (compile+gc+swap-cpu).
	FuncCPU []float64
	// Workers is the number of workstations used.
	Workers int
}

// ImplOverhead returns the implementation-overhead total (master + section
// masters), per the paper's definition.
func (t ParTimes) ImplOverhead() float64 {
	return t.SetupSec + t.SchedSec + t.SectionSec
}

// Cluster wires the simulated machines together for one run.
type cluster struct {
	eng      *des.Engine
	pm       costmodel.Params
	eth      *des.Resource
	fs       *des.Resource
	pool     *des.Pool
	stations int
	// pinned[i] serializes masters assigned to station i (Grouped mode);
	// assign maps function names to stations.
	pinned []*des.Resource
	assign map[string]int
}

func newCluster(pm costmodel.Params, workstations int) *cluster {
	eng := des.NewEngine()
	c := &cluster{
		eng:      eng,
		pm:       pm,
		eth:      eng.NewResource("ethernet", 1),
		fs:       eng.NewResource("fileserver", 1),
		pool:     eng.NewPool(workstations),
		stations: workstations,
	}
	for i := 0; i < workstations; i++ {
		c.pinned = append(c.pinned, eng.NewResource("station", 1))
	}
	return c
}

// transfer moves mb over the Ethernet to/from the file server, queueing
// FIFO on both shared media. Returns the time spent.
func (c *cluster) transfer(p *des.Proc, mb float64) float64 {
	start := p.Now()
	p.Use(c.eth, mb/c.pm.EthernetMBps)
	p.Use(c.fs, mb/c.pm.FileServerMBps)
	return p.Now() - start
}

// compileFunc simulates phases 2+3 of one function on a dedicated node,
// interleaving CPU with paging traffic so that concurrent masters contend
// realistically on the shared media. Returns (cpuSec, swapWallSec, gcSec).
func (c *cluster) compileFunc(p *des.Proc, fo parser.FuncOutline, contextLines int, retainedMB float64) (float64, float64, float64) {
	pm := c.pm
	cpu := pm.CompileSec(fo.Lines, fo.LoopDepth)
	ws := pm.WorkingSetMB(fo.Lines, contextLines, retainedMB)
	pressure := pm.MemoryPressure(ws)
	cpu += pm.SwapCPU(cpu, pressure)
	gc := pm.GCSec(ws)
	swapMB := pm.SwapMB(cpu, pressure)

	swapWall := 0.0
	const chunks = 8
	for i := 0; i < chunks; i++ {
		p.Sleep(cpu / chunks)
		if swapMB > 0 {
			swapWall += c.transfer(p, swapMB/chunks)
		}
	}
	p.Sleep(gc)
	return cpu, swapWall, gc
}

// seqRecipe runs the sequential compiler for one module on the calling
// simulated process (which should hold a workstation).
func (c *cluster) seqRecipe(p *des.Proc, o *parser.Outline, out *SeqTimes) {
	pm := c.pm
	start := p.Now()
	// One Lisp process for the whole compilation.
	p.Sleep(pm.LispStartupSec)
	out.CPU += pm.LispStartupSec
	c.transfer(p, pm.ImageMB)

	total := 0
	for _, fo := range o.AllFunctions() {
		total += fo.Lines
	}
	parse := pm.ParseSec(total)
	p.Sleep(parse)
	out.CPU += parse

	// Phases 2+3, function after function; the long-lived process retains
	// heap, eventually paging against the node's memory.
	retained := 0.0
	for _, fo := range o.AllFunctions() {
		cpu, swapWall, gc := c.compileFunc(p, fo, total, retained)
		out.CPU += cpu + gc
		out.SwapSec += swapWall
		out.GCSec += gc
		retained += pm.RetainPerLineMB * float64(fo.Lines)
	}

	// Phase 4: assembly per function, then linking.
	for _, fo := range o.AllFunctions() {
		a := pm.AsmSec(fo.Lines)
		p.Sleep(a)
		out.CPU += a
	}
	p.Sleep(pm.LinkFixed)
	out.CPU += pm.LinkFixed
	out.Elapsed = p.Now() - start
}

// SimulateSequential runs the sequential compiler for the module outline on
// one workstation of a fresh cluster.
func SimulateSequential(o *parser.Outline, pm costmodel.Params) SeqTimes {
	c := newCluster(pm, 1)
	var out SeqTimes
	c.eng.Go(func(p *des.Proc) {
		c.seqRecipe(p, o, &out)
	})
	c.eng.Run()
	return out
}

// BatchMode selects the per-module compiler for SimulateBatch.
type BatchMode int

const (
	// BatchSequentialCompiler is the paper's parallel-make baseline: each
	// module is one job compiled by the sequential compiler on a pooled
	// workstation.
	BatchSequentialCompiler BatchMode = iota
	// BatchParallelCompiler is the coexistence scenario (§3.4): parallel
	// make organizes modules while each module is itself compiled by the
	// parallel compiler, all sharing one workstation pool.
	BatchParallelCompiler
)

// SimulateBatch builds several independent modules concurrently on one
// cluster of `stations` workstations and returns the makespan in seconds.
func SimulateBatch(outlines []*parser.Outline, pm costmodel.Params, stations int, mode BatchMode) float64 {
	c := newCluster(pm, stations)
	elapsed := 0.0
	for _, o := range outlines {
		o := o
		switch mode {
		case BatchSequentialCompiler:
			c.eng.Go(func(p *des.Proc) {
				var out SeqTimes
				station, _ := p.AcquireStation(c.pool)
				c.seqRecipe(p, o, &out)
				p.ReleaseStation(c.pool, station)
				if p.Now() > elapsed {
					elapsed = p.Now()
				}
			})
		case BatchParallelCompiler:
			c.eng.Go(func(p *des.Proc) {
				var out ParTimes
				c.parRecipe(p, o, FCFS, &out)
				if p.Now() > elapsed {
					elapsed = p.Now()
				}
			})
		}
	}
	c.eng.Run()
	return elapsed
}

// Strategy selects the function-master placement.
type Strategy int

const (
	// FCFS gives every function its own master, placed on the next free
	// workstation — the measured system's policy (§3.3).
	FCFS Strategy = iota
	// Grouped balances estimated costs over the workstations first (§4.3's
	// improved heuristic); each group shares one master process.
	Grouped
)

// SimulateParallel runs the parallel compiler for the outline on a cluster
// of `workstations` workers (the master and section masters run on the
// invoking host, which is not part of the pool, as in the paper's 9
// processors for 9 functions).
func SimulateParallel(o *parser.Outline, pm costmodel.Params, workstations int, strat Strategy) ParTimes {
	c := newCluster(pm, workstations)
	out := ParTimes{Workers: workstations}

	totalLines := 0
	for _, fo := range o.AllFunctions() {
		totalLines += fo.Lines
	}

	// Under the grouped strategy the master derives a global placement from
	// its structural parse: estimated costs balanced over the stations
	// (§4.3 — "this information is readily available" to the master).
	if strat == Grouped {
		var tasks []sched.Task
		for _, so := range o.Sections {
			for _, fo := range so.Functions {
				tasks = append(tasks, sched.Task{Name: fo.Name, Section: fo.Section,
					Index: fo.Index, Lines: fo.Lines, LoopDepth: fo.LoopDepth})
			}
		}
		c.assign = make(map[string]int)
		for station, g := range sched.Group(tasks, workstations) {
			for _, task := range g {
				c.assign[task.Name] = station
			}
		}
	}

	c.eng.Go(func(p *des.Proc) {
		c.parRecipe(p, o, strat, &out)
	})
	c.eng.Run()

	for _, cpu := range out.FuncCPU {
		if cpu > out.MaxProcCPU {
			out.MaxProcCPU = cpu
		}
	}
	return out
}

// parRecipe runs the parallel compiler's master process for one module on
// the calling simulated process.
func (c *cluster) parRecipe(p *des.Proc, o *parser.Outline, strat Strategy, out *ParTimes) {
	pm := c.pm
	totalLines := 0
	for _, fo := range o.AllFunctions() {
		totalLines += fo.Lines
	}
	start := p.Now()

	// Master: C-process startup plus one Lisp parse of the module to obtain
	// the partitioning ("setup time").
	p.Sleep(pm.MasterFixed)
	p.Sleep(pm.LispStartupSec)
	c.transfer(p, pm.ImageMB)
	parse := pm.ParseSec(totalLines)
	p.Sleep(parse)
	out.SetupSec = p.Now() - start

	// Fork section masters and wait.
	wg := c.eng.NewWaitGroup(len(o.Sections))
	for _, so := range o.Sections {
		so := so
		c.eng.Go(func(sp *des.Proc) {
			c.runSectionMaster(sp, so, totalLines, strat, out)
			wg.Done()
		})
	}
	p.Wait(wg)
	// Scheduling time: the master's own coordination cost, a small
	// per-section charge (the wall time above is the children's).
	sched := pm.MasterFixed * float64(len(o.Sections)) * 0.3
	p.Sleep(sched)
	out.SchedSec = sched

	// Sequential tail: assembly of every function, then linking.
	for _, fo := range o.AllFunctions() {
		p.Sleep(pm.AsmSec(fo.Lines))
	}
	p.Sleep(pm.LinkFixed)
	out.Elapsed = p.Now() - start
}

// runSectionMaster simulates one section master: fork function masters per
// the strategy, wait, combine results.
func (c *cluster) runSectionMaster(p *des.Proc, so parser.SectionOutline, totalLines int, strat Strategy, out *ParTimes) {
	pm := c.pm
	p.Sleep(pm.MasterFixed) // C-process startup + directive interpretation

	// One function master per function under FCFS; under Grouped, this
	// section's functions that share an assigned station also share one
	// Lisp master process (one startup, sequential compiles).
	var groups [][]parser.FuncOutline
	var stations []int
	switch strat {
	case Grouped:
		byStation := make(map[int][]parser.FuncOutline)
		var order []int
		for _, fo := range so.Functions {
			st := c.assign[fo.Name]
			if _, seen := byStation[st]; !seen {
				order = append(order, st)
			}
			byStation[st] = append(byStation[st], fo)
		}
		for _, st := range order {
			groups = append(groups, byStation[st])
			stations = append(stations, st)
		}
	default:
		for _, fo := range so.Functions {
			groups = append(groups, []parser.FuncOutline{fo})
			stations = append(stations, -1)
		}
	}

	wg := c.eng.NewWaitGroup(len(groups))
	for i, g := range groups {
		g := g
		st := stations[i]
		c.eng.Go(func(fp *des.Proc) {
			c.runFunctionMaster(fp, g, totalLines, st, out)
			wg.Done()
		})
	}
	p.Wait(wg)

	// Combine objects and diagnostic output. The section master's own CPU
	// (its implementation-overhead contribution) is its process startup
	// plus this combining step; the waiting above overlaps the children.
	combine := pm.CombineSecPerFunc * float64(len(so.Functions))
	p.Sleep(combine)
	out.SectionSec += pm.MasterFixed + combine

}

// runFunctionMaster simulates one Lisp function master compiling the given
// functions (usually one; several when grouped) on one workstation.
// Returns the master's CPU seconds.
func (c *cluster) runFunctionMaster(p *des.Proc, fos []parser.FuncOutline, totalLines int, pinnedStation int, out *ParTimes) float64 {
	pm := c.pm
	if pinnedStation >= 0 {
		wait := p.Acquire(c.pinned[pinnedStation])
		defer p.Release(c.pinned[pinnedStation])
		out.WaitSec += wait
	} else {
		station, wait := p.AcquireStation(c.pool)
		defer p.ReleaseStation(c.pool, station)
		out.WaitSec += wait
	}

	// Lisp process startup and core-image download on this node.
	p.Sleep(pm.LispStartupSec)
	out.StartupSec += pm.LispStartupSec
	out.DownloadSec += c.transfer(p, pm.ImageMB)

	// The master already partitioned the program, so the function master
	// only rebuilds the context of its own functions — the paper's "each
	// works on a smaller subproblem", which is also what keeps its working
	// set below a single workstation's memory.
	groupLines := 0
	for _, fo := range fos {
		groupLines += fo.Lines
	}
	parse := pm.ParseSec(groupLines)
	p.Sleep(parse)

	cpuTotal := pm.LispStartupSec + parse
	retained := 0.0
	for _, fo := range fos {
		cpu, swapWall, gc := c.compileFunc(p, fo, groupLines, retained)
		out.SwapSec += swapWall
		out.GCSec += gc
		cpuTotal += cpu + gc
		retained += pm.RetainPerLineMB * float64(fo.Lines)
	}

	// Write the object(s) back to the file server.
	out.DownloadSec += c.transfer(p, pm.ObjectMB*float64(len(fos)))

	out.FuncCPU = append(out.FuncCPU, cpuTotal)
	return cpuTotal
}
