package parser

import (
	"repro/internal/ast"
	"repro/internal/source"
)

// Outline is the structural summary of a module that the master process
// extracts with its extra up-front parse (the paper's "setup time"): how many
// sections there are, which functions each contains, and per-function size
// metrics. The scheduler's load-balancing heuristic (§4.3: "a combination of
// lines of code and loop nesting can serve as approximation of the
// compilation time") reads exactly these fields.
type Outline struct {
	Module   string
	Sections []SectionOutline
	// Tree is the module ParseOutline parsed, unchecked, so that the
	// master's frontend checks it instead of parsing the source again. The
	// frontend that checks it owns it from then on (checking annotates and
	// rewrites the tree). Nil from OutlineOf and OutlineWithHashes, whose
	// caller already holds the module.
	Tree *ast.Module
}

// SectionOutline summarizes one section program.
type SectionOutline struct {
	Index     int
	Functions []FuncOutline
}

// FuncOutline summarizes one function for scheduling purposes, and — when
// the outline was built against source bytes — for incremental reuse: the
// exact byte span of the declaration and its content address.
type FuncOutline struct {
	Name      string
	Section   int // 1-based section number
	Index     int // 0-based position within the section
	Lines     int // formatted lines of code (the paper's size metric)
	LoopDepth int // deepest loop nesting

	// SpanStart/SpanEnd delimit the declaration's byte span in the source
	// (function keyword through closing brace, end exclusive), and BodyStart
	// is the offset of the body's opening brace. Zero when the outline was
	// computed without source (OutlineOf).
	SpanStart int
	SpanEnd   int
	BodyStart int
	// Hash is the function's incremental content address (zero without
	// source). Masters probe the object tier with it before scheduling, and
	// dispatch requests carry it so workers can answer from cache.
	Hash FuncHash
	// Calls are the function's direct calls (see DirectCalls), found by the
	// same pass that computed Hash; nil without source.
	Calls []int
}

// NumFunctions returns the total number of functions in the outline.
func (o *Outline) NumFunctions() int {
	n := 0
	for _, s := range o.Sections {
		n += len(s.Functions)
	}
	return n
}

// AllFunctions returns every function outline in declaration order.
func (o *Outline) AllFunctions() []FuncOutline {
	var out []FuncOutline
	for _, s := range o.Sections {
		out = append(out, s.Functions...)
	}
	return out
}

// OutlineOf computes the structural summary of an already-parsed module.
func OutlineOf(m *ast.Module) *Outline {
	o := &Outline{Module: m.Name}
	for _, s := range m.Sections {
		so := SectionOutline{Index: s.Index}
		for i, f := range s.Funcs {
			so.Functions = append(so.Functions, FuncOutline{
				Name:      f.Name,
				Section:   s.Index,
				Index:     i,
				Lines:     ast.FuncLines(f),
				LoopDepth: ast.MaxLoopDepth(f),
			})
		}
		o.Sections = append(o.Sections, so)
	}
	return o
}

// OutlineWithHashes computes the structural summary of a parsed module
// against its exact source bytes, filling each function's byte span,
// incremental content address and direct calls (HashFuncs) in addition to
// the scheduling metrics.
func OutlineWithHashes(m *ast.Module, src []byte) *Outline {
	o := OutlineOf(m)
	hashSections(m, src, func(si, i int, h FuncHash, calls []int) {
		fo := &o.Sections[si].Functions[i]
		fo.Hash, fo.Calls = h, calls
		fn := m.Sections[si].Funcs[i]
		if sp, ok := funcSpan(src, fn); ok && len(sp) > 0 {
			fo.SpanStart = fn.FuncPos.Offset
			fo.SpanEnd = fn.Body.RbracePos.Offset + 1
			fo.BodyStart = fn.Body.LbracePos.Offset
		}
	})
	return o
}

// ParseOutline performs the master's structural parse: a full parse of src
// followed by outline extraction (spans, incremental hashes and calls
// included). The outline keeps the parsed tree (Outline.Tree). Any syntax
// error lands in diags, which is how the paper's master aborts the
// compilation before forking anything.
func ParseOutline(file string, src []byte, diags *source.DiagBag) *Outline {
	m := Parse(file, src, diags)
	if m == nil || diags.HasErrors() {
		return nil
	}
	o := OutlineWithHashes(m, src)
	o.Tree = m
	return o
}
