package compiler

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// printedFuncLines counts by printing: it formats a module holding only f
// and subtracts the module line, the blank line and the section's opening
// and closing lines. It is the oracle for the counting FuncLines.
func printedFuncLines(f *ast.FuncDecl) int {
	tmp := &ast.Module{
		Name:     "tmp",
		Sections: []*ast.Section{{Index: 1, Funcs: []*ast.FuncDecl{f}}},
	}
	return ast.CountLines(tmp) - 4
}

// everyStatement uses each statement form the printer knows, nested.
const everyStatement = `module every (in xs: float[4], out ys: float[4])
section 1 {
    function helper(a: int): int {
        if a > 2 { return 1; } else if a > 1 { return 2; } else { return 3; }
    }
    function cell() {
        var i: int; var v: float = 0.0; var n: int = 0;
        { var w: float; w = 1.0; }
        for i = 0 to 3 step 1 {
            receive(X, v);
            if i == 2 { continue; }
            while n < 3 { n = n + 1; if n == 2 { break; } }
            helper(i);
            send(Y, v);
        }
        if n > 0 { n = 0; }
        return;
    }
}
`

// exampleSources returns every W2 program under examples/: *.w2 files, and
// the module literals the example programs embed in their Go source.
func exampleSources(t *testing.T) map[string][]byte {
	t.Helper()
	literal := regexp.MustCompile("(?s)`(\\s*module .*?)`")
	out := map[string][]byte{}
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".w2":
			b, err := os.ReadFile(path)
			out[path] = b
			return err
		case ".go":
			b, err := os.ReadFile(path)
			for i, m := range literal.FindAllSubmatch(b, -1) {
				out[fmt.Sprintf("%s#%d", path, i)] = m[1]
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no W2 program found under examples/")
	}
	return out
}

// TestFuncLinesMatchesPrinter: FuncLines counts the lines the printer emits
// without printing, and must agree with printing on every function of the
// benchmark programs, the examples and the generated programs of the
// differential tests. The outline's Lines — what the cost model and the
// dispatch plan read — must therefore be unchanged.
func TestFuncLinesMatchesPrinter(t *testing.T) {
	sources := map[string][]byte{
		"mixed12":      wgen.MixedProgram(12),
		"wide12x4":     wgen.WideProgram(12, 4),
		"smallfuncs":   wgen.SmallFuncsProgram(256),
		"synthetic":    wgen.SyntheticProgram(wgen.Medium, 4),
		"multisection": wgen.MultiSectionProgram(wgen.Small, 3),
		"user":         wgen.UserProgram(),
		"every":        []byte(everyStatement),
	}
	for name, src := range exampleSources(t) {
		sources[name] = src
	}
	for seed := uint64(1); seed <= 25; seed++ {
		sources[fmt.Sprintf("random/%d", seed)] = []byte(randomProgram(seed, 6))
	}
	for seed := uint64(100); seed < 108; seed++ {
		sources[fmt.Sprintf("random/%d", seed)] = []byte(randomProgram(seed, 4))
	}

	for name, src := range sources {
		var bag source.DiagBag
		m := parser.Parse(name, src, &bag)
		if bag.HasErrors() {
			t.Fatalf("%s: %s", name, bag.String())
		}
		o := parser.OutlineOf(m)
		for si, sec := range m.Sections {
			for fi, fn := range sec.Funcs {
				want := printedFuncLines(fn)
				if got := ast.FuncLines(fn); got != want {
					t.Errorf("%s: %s: FuncLines = %d, the printer prints %d", name, fn.Name, got, want)
				}
				if got := o.Sections[si].Functions[fi].Lines; got != want {
					t.Errorf("%s: %s: outline Lines = %d, want %d", name, fn.Name, got, want)
				}
			}
		}
	}
}
