package compiler

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/wgen"
)

// prefixCompileFunction is the share-nothing function master: it lowers fn
// and every earlier function of its section afresh (its potential callees),
// inlines in declaration order, and shares nothing with any other compile —
// what the paper's function masters did, since their processes shared only
// the file system. It is quadratic in a section's length and independent of
// funcIR's hash-keyed callee resolution, which makes it the oracle the one
// per-function compile path is checked against.
func prefixCompileFunction(m *ast.Module, info *sem.Info, fn *ast.FuncDecl, opts Options) (*FuncResult, error) {
	start := time.Now()
	sec, err := sectionOf(m, fn)
	if err != nil {
		return nil, err
	}

	// Lower this function and every earlier function of its section (its
	// potential callees), then inline in declaration order.
	funcs := make(map[string]*ir.Func)
	var target *ir.Func
	for _, g := range sec.Funcs {
		f, err := ir.Lower(g, info)
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", g.Name, err)
		}
		if err := ir.InlineCalls(f, funcs); err != nil {
			return nil, fmt.Errorf("inlining into %s: %w", g.Name, err)
		}
		funcs[g.Name] = f
		if g == fn {
			target = f
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("function %s not found in section %d", fn.Name, sec.Index)
	}
	return finishFunction(fn, sec, target, opts, start)
}

// TestCompileModuleMatchesPrefixOracle: for every function of every program
// in the corpus — the wgen shapes and the random differential programs —
// CompileModule's object must encode to the same bytes as the share-nothing
// oracle's, with the same code-generation statistics.
func TestCompileModuleMatchesPrefixOracle(t *testing.T) {
	type program struct {
		name string
		src  []byte
	}
	corpus := []program{
		{"synthetic-tiny", wgen.SyntheticProgram(wgen.Tiny, 4)},
		{"synthetic-small", wgen.SyntheticProgram(wgen.Small, 4)},
		{"synthetic-medium", wgen.SyntheticProgram(wgen.Medium, 2)},
		{"multisection", wgen.MultiSectionProgram(wgen.Small, 3)},
		{"mixed12", wgen.MixedProgram(12)},
		{"wide12x4", wgen.WideProgram(12, 4)},
		{"skewed3x6", wgen.SkewedProgram(3, 6)},
		{"smallfuncs64", wgen.SmallFuncsProgram(64)},
		{"user", wgen.UserProgram()},
	}
	// The seeds and input counts TestRandomProgramsDifferential and
	// TestRandomProgramsAblationsAgree compile.
	for seed := uint64(1); seed <= 25; seed++ {
		corpus = append(corpus, program{fmt.Sprintf("random%d", seed), []byte(randomProgram(seed, 6))})
	}
	for seed := uint64(100); seed < 108; seed++ {
		corpus = append(corpus, program{fmt.Sprintf("random%d", seed), []byte(randomProgram(seed, 4))})
	}
	for _, p := range corpus {
		t.Run(p.name, func(t *testing.T) {
			res, err := CompileModule(p.name+".w2", p.src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, info, bag := Frontend(p.name+".w2", p.src)
			if bag.HasErrors() {
				t.Fatalf("frontend: %s", bag.String())
			}
			k := 0
			for _, sec := range m.Sections {
				for _, fn := range sec.Funcs {
					want, err := prefixCompileFunction(m, info, fn, Options{})
					if err != nil {
						t.Fatalf("oracle: %s: %v", fn.Name, err)
					}
					got := res.Funcs[k]
					k++
					if got.Name != fn.Name {
						t.Fatalf("function %d is %s, want %s", k-1, got.Name, fn.Name)
					}
					if !bytes.Equal(asm.Encode(got.Object), asm.Encode(want.Object)) {
						t.Errorf("%s: object differs from the oracle's", fn.Name)
					}
					if got.GenStats != want.GenStats {
						t.Errorf("%s: GenStats %+v, oracle %+v", fn.Name, got.GenStats, want.GenStats)
					}
				}
			}
			if k != len(res.Funcs) {
				t.Errorf("CompileModule returned %d functions, the module declares %d", len(res.Funcs), k)
			}
		})
	}
}
