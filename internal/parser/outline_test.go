package parser_test

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// outlineSources is the corpus the outline tests run over: each wgen kind
// plus a one-function module.
func outlineSources() map[string][]byte {
	return map[string][]byte{
		"synthetic": wgen.SyntheticProgram(wgen.Medium, 6),
		"small":     wgen.SmallFuncsProgram(12),
		"mixed":     wgen.MixedProgram(8),
		"multisec":  wgen.MultiSectionProgram(wgen.Small, 3),
		"user":      wgen.UserProgram(),
		"wide":      wgen.WideProgram(16, 2),
		"tiny": []byte(`module t
section 1 { function f(): int { return 1; } }
`),
	}
}

// TestParseOutlineKeepsParseTree: the tree ParseOutline keeps is the one
// Parse builds from the same bytes (printed form, locator indices), and the
// outline's per-function hashes and calls are HashFuncs' for that tree, so
// the master's frontend can check the outline's tree and take its hashes
// instead of parsing and hashing again. OutlineOf and OutlineWithHashes
// keep no tree.
func TestParseOutlineKeepsParseTree(t *testing.T) {
	for name, src := range outlineSources() {
		var seqBag source.DiagBag
		seqMod := parser.Parse("m.w2", src, &seqBag)
		if seqBag.HasErrors() {
			t.Fatalf("%s: corpus source does not parse: %s", name, seqBag.String())
		}
		var bag source.DiagBag
		o := parser.ParseOutline("m.w2", src, &bag)
		if o == nil || o.Tree == nil || bag.String() != seqBag.String() {
			t.Fatalf("%s: outline %v, diagnostics %q, want a tree and %q", name, o, bag.String(), seqBag.String())
		}
		if got, want := ast.Format(o.Tree), ast.Format(seqMod); got != want {
			t.Errorf("%s: outline tree prints differently from Parse's", name)
		}
		hashes, calls := parser.HashFuncs(seqMod, src)
		for si, sec := range o.Tree.Sections {
			for fi, fn := range sec.Funcs {
				if fn.SectionIndex != sec.Index || fn.FuncIndex != fi {
					t.Errorf("%s: section %d func %d has locator (%d, %d)", name, si, fi, fn.SectionIndex, fn.FuncIndex)
				}
				fo := o.Sections[si].Functions[fi]
				k := parser.FuncKey{Section: sec.Index, Index: fi}
				if fo.Hash != hashes[k] {
					t.Errorf("%s: %s: outline hash differs from HashFuncs", name, fo.Name)
				}
				if !reflect.DeepEqual(fo.Calls, calls[k]) {
					t.Errorf("%s: %s: outline calls %v, HashFuncs %v", name, fo.Name, fo.Calls, calls[k])
				}
			}
		}
		if parser.OutlineOf(seqMod).Tree != nil || parser.OutlineWithHashes(seqMod, src).Tree != nil {
			t.Errorf("%s: OutlineOf/OutlineWithHashes kept a tree", name)
		}
	}
}
