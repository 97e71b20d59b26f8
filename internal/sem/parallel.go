// Concurrent semantic checking.
//
// Check's work splits cleanly in two. Pass A — streams, section headers,
// function signatures, and name insertion — is inherently sequential (later
// declarations see earlier ones) but cheap: it never looks inside a body.
// Pass B — checking each function body — is the bulk of the walk and is
// independent per function once pass A has pinned down what every body can
// see. CheckParallel runs pass A on the calling goroutine, then fans the
// bodies out to a bounded worker group — each body checked against a
// read-only scope chain into a private diagnostic bag, each worker recording
// into a private Info — and merges the results in declaration order so the
// output is word-identical to Check's.
//
// Pass A builds each section's scope exactly as Check does — one keep-first
// scope (a duplicate name never displaces the first declaration) into which
// every function is inserted after its body's turn — and gives body i a
// read-only prefix view of it: the view shares the section's map and sees
// only the first i inserted objects, which are exactly the names Check's
// scope holds when it checks body i. Every lookup therefore resolves to the
// object the sequential checker would find, pass A does O(1) work per
// function instead of copying its predecessors, and the shared map is
// immutable by the time any worker reads it.
package sem

import (
	"context"
	"sync"

	"repro/internal/ast"
	"repro/internal/source"
)

// CheckFuncBody checks one function body against scope (the names visible to
// it: module streams plus the functions declared before it in its section).
// fn.Sig must already be set (by the signature pass). The walk records into
// info and diags only, so concurrent calls on distinct functions are safe as
// long as each call gets its own info and diags and the scope chain is no
// longer mutated.
func CheckFuncBody(fn *ast.FuncDecl, scope *Scope, info *Info, diags *source.DiagBag) {
	c := &checker{diags: diags, info: info}
	c.funcBody(fn, scope)
}

// checkUnit is one function body scheduled for pass B, with the merge-order
// bags pass A prepared for it.
type checkUnit struct {
	fn    *ast.FuncDecl
	scope *Scope // prefix view of the section scope

	bodyBag   source.DiagBag  // filled by the worker
	redeclBag *source.DiagBag // filled by pass A (redeclaration at fn.Pos), or nil
}

func newInfo() *Info {
	return &Info{
		Uses:     make(map[*ast.Ident]*Object),
		FuncObjs: make(map[*ast.FuncDecl]*Object),
		Locals:   make(map[*ast.FuncDecl][]*Object),
	}
}

// CheckParallel type-checks the module like Check but runs function bodies
// concurrently on at most `workers` goroutines. The returned Info and the
// diagnostics appended to diags are identical to Check's — diagnostics are
// recorded into private per-function bags and merged in declaration order,
// never completion order, so equal-position messages keep the sequential
// emission order. The error is non-nil only when ctx was cancelled; all
// worker goroutines have exited by the time CheckParallel returns, and no
// partial Info escapes.
func CheckParallel(ctx context.Context, m *ast.Module, diags *source.DiagBag, workers int) (*Info, error) {
	if workers < 1 {
		workers = 1
	}
	info := newInfo()
	headBag := &source.DiagBag{}
	hc := &checker{diags: headBag, info: info}

	// Pass A: module scope, section checks, signatures, and one section
	// scope per section with a prefix view per body. Mirrors
	// checker.module/section minus funcBody.
	moduleScope := NewScope(nil)
	for _, sp := range m.Streams {
		t := hc.resolveType(sp.Type)
		obj := &Object{Name: sp.Name, Kind: StreamObj, Type: t, Pos: sp.Pos(), Decl: sp}
		if prev := moduleScope.Insert(obj); prev != nil {
			hc.errorf(sp.Pos(), "stream %s redeclared (previous declaration at %s)", sp.Name, prev.Pos)
		}
	}

	units := make([]checkUnit, 0, m.NumFunctions())
	seenSection := make(map[int]source.Pos)
	for _, sec := range m.Sections {
		if pos, dup := seenSection[sec.Index]; dup {
			hc.errorf(sec.Pos(), "section %d redeclared (previous declaration at %s)", sec.Index, pos)
		}
		seenSection[sec.Index] = sec.Pos()
		if sec.Of != 0 && sec.Of != len(m.Sections) {
			hc.errorf(sec.Pos(), "section %d declares \"of %d\" but module has %d sections",
				sec.Index, sec.Of, len(m.Sections))
		}

		secScope := NewScope(moduleScope)
		for _, fn := range sec.Funcs {
			fn.Sig = hc.signature(fn)
			obj := &Object{Name: fn.Name, Kind: FuncObj, Type: fn.Sig, Pos: fn.Pos(), Decl: fn}
			info.FuncObjs[fn] = obj
			// The view is taken before fn's own name goes in, so the body
			// cannot call the function recursively.
			units = append(units, checkUnit{fn: fn, scope: secScope.prefixView()})
			if prev := secScope.Insert(obj); prev != nil {
				u := &units[len(units)-1]
				u.redeclBag = &source.DiagBag{}
				u.redeclBag.Errorf(fn.Pos(), "function %s redeclared in section %d (previous declaration at %s)",
					fn.Name, sec.Index, prev.Pos)
			}
		}
	}

	// Pass B: bounded fan-out over the bodies. Workers start only after pass
	// A is complete, so every section scope — and every fn.Sig — is
	// immutable from here on. Each worker records uses and locals into its
	// own Info; their keys are distinct, so merging them needs no order.
	nw := workers
	if nw > len(units) {
		nw = len(units)
	}
	infos := make([]*Info, nw)
	jobCh := make(chan *checkUnit)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		infos[w] = newInfo()
		go func(winfo *Info) {
			defer wg.Done()
			for u := range jobCh {
				CheckFuncBody(u.fn, u.scope, winfo, &u.bodyBag)
			}
		}(infos[w])
	}
	feed := func() error {
		defer close(jobCh)
		for i := range units {
			if err := ctx.Err(); err != nil {
				return err
			}
			select {
			case jobCh <- &units[i]:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	err := feed()
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Merge diagnostics in declaration order. Equal-position pairs all occur
	// within one function, where the sequential emission order is signature
	// (headBag), then body — parameter redeclarations and the missing-return
	// at fn.Pos — then the redeclaration of the function itself, also at
	// fn.Pos.
	diags.Merge(headBag)
	for i := range units {
		diags.MergeOrdered(&units[i].bodyBag, units[i].redeclBag)
	}
	for _, winfo := range infos {
		for id, obj := range winfo.Uses {
			info.Uses[id] = obj
		}
		for fn, locals := range winfo.Locals {
			info.Locals[fn] = locals
		}
	}
	return info, nil
}
