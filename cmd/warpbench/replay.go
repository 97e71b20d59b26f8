package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/iodriver"
	"repro/internal/ir"
	"repro/internal/link"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// replayCounts are the exact work counts the staged replay reads off the
// layers' own return values.
type replayCounts struct {
	srcLines       int
	instrsLowered  int
	optPasses      int
	optRewrites    int
	instrsFinal    int
	machineOps     int
	spills         int
	loopsSeen      int
	loopsPipelined int
	iiSum          int
	objectBytes    int
}

// replay walks src through the same steps as compiler.Frontend →
// finishFunction → codegen.Generate → asm.Assemble → link.LinkModule, using
// only exported functions and recording one span per call, so each layer's
// self time can be read from the trace. e.ref is compiler.CompileModule's
// result for the same source: every replayed function's encoded object must
// equal the one compiler.CompileFunction produced, and the linked module
// must equal the reference's, or the per-layer numbers describe some other
// pipeline and replay returns an error.
func replay(rec *recorder, e *env) (replayCounts, error) {
	file, src, ref := e.file, e.src, e.ref
	var n replayCounts
	root := rec.begin("replay", "replay", -1)
	defer rec.end(root)
	// call times one call into a layer as a child span of parent.
	call := func(name, build string, parent int, f func()) {
		id := rec.begin(name, build, parent)
		f()
		rec.end(id)
	}

	n.srcLines = bytes.Count(src, []byte("\n"))
	var outlineBag, bag source.DiagBag
	call("parser.ParseOutline", "frontend", root, func() { parser.ParseOutline(file, src, &outlineBag) })
	var m *ast.Module
	call("parser.Parse", "frontend", root, func() { m = parser.Parse(file, src, &bag) })
	if outlineBag.HasErrors() || bag.HasErrors() {
		return n, fmt.Errorf("replay: %s does not parse:\n%s", file, bag.String())
	}
	call("parser.FuncHashes", "frontend", root, func() { parser.FuncHashes(m, src) })
	var info *sem.Info
	call("sem.Check", "frontend", root, func() { info = sem.Check(m, &bag) })
	if bag.HasErrors() {
		return n, fmt.Errorf("replay: %s does not check:\n%s", file, bag.String())
	}
	var ferr error
	call("compiler.FrontendParallel", "frontend", root, func() {
		_, _, _, ferr = compiler.FrontendParallel(context.Background(), file, src, compiler.FrontendOptions{Parallel: true, Workers: e.cfg.workers})
	})
	if ferr != nil {
		return n, ferr
	}

	bySection := make(map[int][]*asm.Object)
	fi := 0
	for _, sec := range m.Sections {
		// CompileFunction lowers and inlines a function's section prefix
		// afresh for every function; the replay keeps the prefix, as the
		// cached path (funcIR) does, and optimizes a clone.
		lowered := make(map[string]*ir.Func)
		for _, fn := range sec.Funcs {
			fspan := rec.begin("function", fn.Name, root)
			var f *ir.Func
			var err error
			call("ir.LowerInline", fn.Name, fspan, func() {
				if f, err = ir.Lower(fn, info); err == nil {
					err = ir.InlineCalls(f, lowered)
				}
			})
			if err != nil {
				return n, fmt.Errorf("replay: lowering %s: %w", fn.Name, err)
			}
			lowered[fn.Name] = f
			n.instrsLowered += f.NumInstrs()
			target := f.Clone()

			var ost opt.Stats
			call("opt.Optimize", fn.Name, fspan, func() { ost = opt.Optimize(target) })
			call("ir.InvertLoops", fn.Name, fspan, func() { ir.InvertLoops(target) })
			call("opt.Optimize", fn.Name, fspan, func() {
				opt.MergeStraightLine(target)
				opt.EliminateDeadCode(target)
			})
			call("ir.Validate", fn.Name, fspan, func() { err = target.Validate() })
			if err != nil {
				return n, fmt.Errorf("replay: %s: %w", fn.Name, err)
			}
			n.optPasses += ost.Passes
			n.optRewrites += ost.Local.Folded + ost.Local.CopyProp + ost.Local.CSE + ost.Local.Simplified +
				ost.DeadRemoved + ost.Branches + ost.Merges
			n.instrsFinal += target.NumInstrs()

			pf, err := replayGenerate(rec, fspan, target, sec.Entry() == fn, &n)
			if err != nil {
				return n, fmt.Errorf("replay: %s: %w", fn.Name, err)
			}
			var obj *asm.Object
			call("asm.Assemble", fn.Name, fspan, func() { obj, err = asm.Assemble(pf) })
			if err != nil {
				return n, fmt.Errorf("replay: assembling %s: %w", fn.Name, err)
			}
			var enc []byte
			call("asm.Encode", fn.Name, fspan, func() { enc = asm.Encode(obj) })
			call("asm.Decode", fn.Name, fspan, func() { _, err = asm.Decode(enc) })
			if err != nil {
				return n, fmt.Errorf("replay: decoding %s: %w", fn.Name, err)
			}
			rec.end(fspan)
			n.objectBytes += len(enc)

			if fi >= len(ref.Funcs) || ref.Funcs[fi].Name != fn.Name {
				return n, fmt.Errorf("replay: function %d is %s, reference disagrees", fi, fn.Name)
			}
			if !bytes.Equal(enc, e.objects[fi]) {
				return n, fmt.Errorf("replay: %s: encoded object differs from compiler.CompileFunction's", fn.Name)
			}
			fi++
			bySection[sec.Index] = append(bySection[sec.Index], obj)
		}
	}
	if fi != len(ref.Funcs) {
		return n, fmt.Errorf("replay: compiled %d functions, reference has %d", fi, len(ref.Funcs))
	}

	var linked *link.Module
	var err error
	call("link.LinkModule", "tail", root, func() { linked, err = link.LinkModule(m.Name, bySection) })
	if err != nil {
		return n, fmt.Errorf("replay: linking: %w", err)
	}
	call("iodriver.Generate", "tail", root, func() { iodriver.Generate(m) })
	if err := core.VerifySameOutput(ref.Module, linked); err != nil {
		return n, fmt.Errorf("replay: linked module differs from reference: %w", err)
	}
	return n, nil
}

// replayGenerate is codegen.Generate with default options, one span per
// stage. It must stay step-for-step equal to Generate; the byte comparison
// in replay fails the run when it does not.
func replayGenerate(rec *recorder, parent int, f *ir.Func, isEntry bool, n *replayCounts) (*codegen.PFunc, error) {
	call := func(name string, fn func()) {
		id := rec.begin(name, f.Name, parent)
		fn()
		rec.end(id)
	}
	var mf *codegen.MFunc
	var err error
	call("codegen.Select", func() { mf, err = codegen.Select(f, isEntry) })
	if err != nil {
		return nil, err
	}
	n.machineOps += mf.NumOps()
	var pf *codegen.PFunc
	call("codegen.Allocate", func() { pf, err = codegen.Allocate(mf) })
	if err != nil {
		return nil, err
	}
	n.spills += pf.Spilled

	var out []*codegen.PBlock
	for _, b := range pf.Blocks {
		if b.SelfLoop {
			n.loopsSeen++
		}
		if b.SelfLoop && b.Loop != nil && len(b.Ops) > 0 {
			var blocks []*codegen.PBlock
			var res codegen.PipelineResult
			call("codegen.TryPipeline", func() { blocks, res = codegen.TryPipeline(pf, b, b.Ops[len(b.Ops)-1].Sym) })
			if res.Applied {
				n.loopsPipelined++
				n.iiSum += res.II
				out = append(out, blocks...)
				continue
			}
		}
		call("codegen.ScheduleBlock", func() { _, err = codegen.ScheduleBlock(b) })
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	pf.Blocks = out
	return pf, nil
}
