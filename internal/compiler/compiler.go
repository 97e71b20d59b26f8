// Package compiler is the sequential W2 compiler driver: it wires the four
// phases of the reproduced system together.
//
//	Phase 1: parsing and semantic checking            (internal/parser, sem)
//	Phase 2: flowgraph, local optimization, dataflow  (internal/ir, opt)
//	Phase 3: software pipelining and code generation  (internal/codegen)
//	Phase 4: I/O driver generation, assembly, linking (internal/iodriver, asm, link)
//
// Phases 2 and 3 of a function have one implementation, shared by the
// sequential compiler and the parallel one (internal/core): the function's
// lowered, inlined flowgraph comes from funcIR, memoized per function hash
// in an fcache.Cache, and finishFunction optimizes, generates and assembles
// a private copy of it. CompileModule runs that path for every function over
// a cache of its own; function masters run it through
// CompileFunctionIncremental over their worker's cache, and the section
// masters combine objects for the phase-4 tail.
package compiler

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/fcache"
	"repro/internal/iodriver"
	"repro/internal/ir"
	"repro/internal/link"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// Options configures a compilation.
type Options struct {
	Codegen codegen.Options
	// DisableOpt skips phase-2 optimization (ablation).
	DisableOpt bool
}

// FuncResult is the outcome of compiling one function — what a function
// master produces and sends back to its section master.
type FuncResult struct {
	Name    string
	Section int
	IsEntry bool
	Object  *asm.Object
	Lines   int

	OptStats opt.Stats
	GenStats codegen.GenStats
	// CPUTime is the measured host time spent compiling this function.
	CPUTime time.Duration
	// Diags carries warnings produced during this function's compilation;
	// the section master merges them (the paper's diagnostic combining).
	Diags *source.DiagBag
}

// Result is a complete module compilation.
type Result struct {
	ModuleName string
	Module     *link.Module
	Driver     *iodriver.Driver
	Funcs      []*FuncResult

	// Warnings is the combined diagnostic output of the compilation: every
	// warning-severity diagnostic from the frontend and the per-function
	// compilations, rendered. The parallel compiler fills it by merging
	// section-master results (the paper's "combining diagnostics" step).
	Warnings []string

	// Phase timings of this sequential run.
	FrontendTime time.Duration
	MiddleTime   time.Duration // phases 2+3 across all functions
	BackendTime  time.Duration // assembly + linking + driver
}

// Frontend runs phase 1. On error the returned AST may be partial; callers
// must abort when diags has errors (the paper's master does exactly this).
func Frontend(file string, src []byte) (*ast.Module, *sem.Info, *source.DiagBag) {
	var bag source.DiagBag
	m := parser.Parse(file, src, &bag)
	if bag.HasErrors() {
		return m, nil, &bag
	}
	info := sem.Check(m, &bag)
	return m, info, &bag
}

// buildFrontendEntry runs the frontend and packages the shared artifacts,
// including every function's incremental content address (only when the
// frontend succeeded — a module with errors never reaches phases 2+3).
func buildFrontendEntry(file string, src []byte) (*fcache.FrontendEntry, int64) {
	m, info, bag := Frontend(file, src)
	return packageFrontendEntry(m, info, bag, src, nil)
}

// FrontendEntryCached returns the cached phase-1 artifacts of src — checked
// AST, semantic info, diagnostics, and per-function incremental hashes —
// parsing and checking at most once per source content. h must be
// HashSource(src). The entry is shared and must be treated as read-only.
func FrontendEntryCached(cache *fcache.Cache, h fcache.SourceHash, file string, src []byte) *fcache.FrontendEntry {
	return cache.Frontend(h, func() (*fcache.FrontendEntry, int64) {
		return buildFrontendEntry(file, src)
	})
}

// sectionOf resolves the section a function belongs to. It rejects modules
// with duplicate section indices outright instead of silently compiling
// against whichever duplicate was declared last.
func sectionOf(m *ast.Module, fn *ast.FuncDecl) (*ast.Section, error) {
	var sec *ast.Section
	for _, s := range m.Sections {
		if s.Index != fn.SectionIndex {
			continue
		}
		if sec != nil {
			return nil, fmt.Errorf("module declares section %d more than once", fn.SectionIndex)
		}
		sec = s
	}
	if sec == nil {
		return nil, fmt.Errorf("function %s names unknown section %d", fn.Name, fn.SectionIndex)
	}
	return sec, nil
}

// funcIR returns the lowered, inlined (call-free) flowgraph of sec.Funcs[idx],
// cached per function hash. A function's IR depends only on its own body and
// its transitive same-section callees — exactly what its FuncHash covers —
// so editing one function invalidates the IR of it and its callers, nothing
// else. The returned flowgraph is shared: clone before mutating.
func funcIR(cache *fcache.Cache, fe *fcache.FrontendEntry, sec *ast.Section, idx int) (*ir.Func, error) {
	fn := sec.Funcs[idx]
	key := fcache.FuncKey{Section: sec.Index, Index: idx}
	return cache.FuncIR(fe.FuncHashes[key], func() (*ir.Func, error) {
		f, err := ir.Lower(fn, fe.Info)
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", fn.Name, err)
		}
		// Resolve the direct callees' (already inlined, call-free) flowgraphs.
		// fe.Calls already resolved each called name to its latest earlier
		// declaration, so distinct indices here carry distinct names.
		direct := fe.Calls[key]
		callees := make(map[string]*ir.Func, len(direct))
		for _, j := range direct {
			cf, err := funcIR(cache, fe, sec, j)
			if err != nil {
				return nil, err
			}
			callees[sec.Funcs[j].Name] = cf
		}
		if err := ir.InlineCalls(f, callees); err != nil {
			return nil, fmt.Errorf("inlining into %s: %w", fn.Name, err)
		}
		return f, nil
	})
}

// compileFunction runs phases 2 and 3 for sec.Funcs[idx]: its flowgraph
// from funcIR, then finishFunction on a private copy (the cached flowgraph
// is shared).
func compileFunction(cache *fcache.Cache, fe *fcache.FrontendEntry, sec *ast.Section, idx int, opts Options) (*FuncResult, error) {
	start := time.Now()
	target, err := funcIR(cache, fe, sec, idx)
	if err != nil {
		return nil, err
	}
	return finishFunction(sec.Funcs[idx], sec, target.Clone(), opts, start)
}

// CompileFunctionIncremental is the function master's compile: the finished
// artifact is memoized by (FuncHash, options) — the whole compilation is a
// pure function of those inputs — and on a miss the per-function lowered IR
// tier limits re-derivation to the edited function and its callers. The
// returned entry carries the function master's complete reply (wire-encoded
// object plus its full warning list), is shared, and must be treated as
// read-only. hit reports whether the artifact came from cache without
// running any phase. fe must be the frontend entry of the module that
// declares fn (see FrontendEntryCached).
func CompileFunctionIncremental(cache *fcache.Cache, fe *fcache.FrontendEntry, fn *ast.FuncDecl, opts Options) (*fcache.ObjectEntry, bool, error) {
	sec, err := sectionOf(fe.Module, fn)
	if err != nil {
		return nil, false, err
	}
	idx := fn.FuncIndex
	if idx < 0 || idx >= len(sec.Funcs) || sec.Funcs[idx] != fn {
		return nil, false, fmt.Errorf("function %s is not at index %d of section %d", fn.Name, idx, sec.Index)
	}
	built := false
	entry, err := cache.Object(fe.FuncHashes[fcache.FuncKey{Section: sec.Index, Index: idx}], OptsKey(opts), func() (*fcache.ObjectEntry, error) {
		built = true
		fr, err := compileFunction(cache, fe, sec, idx, opts)
		if err != nil {
			return nil, err
		}
		e := &fcache.ObjectEntry{
			Name:    fr.Name,
			Section: fr.Section,
			IsEntry: fr.IsEntry,
			Lines:   fr.Lines,
			// Encode once at build time: the wire form is as pure a function
			// of the inputs as the object, and every RPC reply needs it.
			ObjectBytes: asm.Encode(fr.Object),
		}
		e.SetObject(fr.Object)
		// The entry carries the function master's complete diagnostic output
		// — frontend warnings owned by this function, then its own phase-2+3
		// warnings — so a cache hit reproduces the reply exactly.
		e.Warnings = append(e.Warnings, FrontendWarnings(fe.Module, fe.Bag, fn)...)
		for _, d := range fr.Diags.All() {
			if d.Severity == source.Warn {
				e.Warnings = append(e.Warnings, d.String())
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, false, err
	}
	return entry, !built, nil
}

// LookupObject probes the object tier (memory, then disk) for the finished
// artifact of the function whose compilation inputs hash to fh, without
// compiling anything. Masters call it to short-circuit unchanged functions
// before scheduling; workers call it to answer hash-only requests.
func LookupObject(cache *fcache.Cache, fh fcache.FuncHash, opts Options) (*fcache.ObjectEntry, bool) {
	return cache.PeekObject(fh, OptsKey(opts))
}

// OptsKey fingerprints an Options value for the object-tier cache key. The
// zero value — every production compile — short-circuits past the reflective
// formatting, which otherwise costs more than the cache hit it keys.
func OptsKey(opts Options) string {
	if opts == (Options{}) {
		return "default"
	}
	return fmt.Sprintf("%+v", opts)
}

// funcsByOffset lists every function of m by ascending starting offset,
// declaration order among equal offsets: the index warningOwner searches.
func funcsByOffset(m *ast.Module) []*ast.FuncDecl {
	fns := make([]*ast.FuncDecl, 0, m.NumFunctions())
	for _, sec := range m.Sections {
		fns = append(fns, sec.Funcs...)
	}
	slices.SortStableFunc(fns, func(a, b *ast.FuncDecl) int { return a.Pos().Offset - b.Pos().Offset })
	return fns
}

// warningOwner returns the function whose declaration contains pos: the
// function with the greatest starting offset not after pos, the first
// declared of several at that offset. It returns nil for module-level
// positions before the first function. fns is funcsByOffset of the module.
func warningOwner(fns []*ast.FuncDecl, pos source.Pos) *ast.FuncDecl {
	i := sort.Search(len(fns), func(i int) bool { return fns[i].Pos().Offset > pos.Offset })
	if i == 0 {
		return nil
	}
	at := fns[i-1].Pos().Offset
	return fns[sort.Search(i, func(j int) bool { return fns[j].Pos().Offset >= at })]
}

// FrontendWarnings renders bag's warning diagnostics owned by fn — or, with
// fn nil, the module-level warnings owned by no function. Splitting
// ownership this way means each warning is reported by exactly one master
// even though every function master sees the whole module's diagnostics.
func FrontendWarnings(m *ast.Module, bag *source.DiagBag, fn *ast.FuncDecl) []string {
	var out []string
	var fns []*ast.FuncDecl
	for _, d := range bag.All() {
		if d.Severity != source.Warn {
			continue
		}
		if fns == nil {
			fns = funcsByOffset(m)
		}
		if warningOwner(fns, d.Pos) == fn {
			out = append(out, d.String())
		}
	}
	return out
}

// finishFunction runs the shared back half of a function compilation:
// optimization, loop inversion, code generation, and assembly of an owned
// (never shared) target flowgraph. start is when the caller began, so
// CPUTime covers the whole per-function compilation.
func finishFunction(fn *ast.FuncDecl, sec *ast.Section, target *ir.Func, opts Options, start time.Time) (*FuncResult, error) {
	isEntry := sec.Entry() == fn
	if isEntry && len(fn.Params) > 0 {
		return nil, fmt.Errorf("entry function %s of section %d must take no parameters", fn.Name, sec.Index)
	}

	res := &FuncResult{
		Name:    fn.Name,
		Section: sec.Index,
		IsEntry: isEntry,
		Lines:   ast.FuncLines(fn),
		Diags:   &source.DiagBag{},
	}

	if !opts.DisableOpt {
		res.OptStats = opt.Optimize(target)
	}
	ir.InvertLoops(target)
	// Re-run cleanup so inverted loops merge into self-loop blocks.
	opt.MergeStraightLine(target)
	opt.EliminateDeadCode(target)
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid IR entering codegen: %w", fn.Name, err)
	}

	pf, gs, err := codegen.Generate(target, isEntry, opts.Codegen)
	if err != nil {
		return nil, err
	}
	res.GenStats = gs

	obj, err := asm.Assemble(pf)
	if err != nil {
		return nil, err
	}
	res.Object = obj
	res.CPUTime = time.Since(start)
	return res, nil
}

// CompileModule runs the complete sequential compiler on source text. It
// is the parity reference of the parallel compiler. Every function takes the
// function masters' path (compileFunction) over a cache private to this
// call, so each function is lowered and inlined once however many callers
// it has. The cache is memory-only: the reference never reads a disk tier.
func CompileModule(file string, src []byte, opts Options) (*Result, error) {
	t0 := time.Now()
	fe, _ := buildFrontendEntry(file, src)
	if fe.Bag.HasErrors() {
		return nil, fmt.Errorf("frontend errors:\n%s", fe.Bag.String())
	}
	m := fe.Module
	res := &Result{ModuleName: m.Name, FrontendTime: time.Since(t0)}
	for _, d := range fe.Bag.All() {
		if d.Severity == source.Warn {
			res.Warnings = append(res.Warnings, d.String())
		}
	}

	t1 := time.Now()
	cache := fcache.New(0)
	for _, sec := range m.Sections {
		for idx, fn := range sec.Funcs {
			fr, err := compileFunction(cache, fe, sec, idx, opts)
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", fn.Name, err)
			}
			res.Funcs = append(res.Funcs, fr)
			for _, d := range fr.Diags.All() {
				if d.Severity == source.Warn {
					res.Warnings = append(res.Warnings, d.String())
				}
			}
		}
	}
	res.MiddleTime = time.Since(t1)

	t2 := time.Now()
	linked, err := LinkResults(m.Name, res.Funcs)
	if err != nil {
		return nil, err
	}
	res.Module = linked
	res.Driver = iodriver.Generate(m)
	res.BackendTime = time.Since(t2)
	return res, nil
}

// LinkResults performs the phase-4 tail shared by the sequential and the
// parallel compiler: grouping function objects by section and linking the
// download module.
func LinkResults(moduleName string, funcs []*FuncResult) (*link.Module, error) {
	bySection := make(map[int][]*asm.Object)
	for _, fr := range funcs {
		bySection[fr.Section] = append(bySection[fr.Section], fr.Object)
	}
	return link.LinkModule(moduleName, bySection)
}
