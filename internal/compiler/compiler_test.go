package compiler

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/warpsim"
)

// runBoth compiles src, executes the module on the array simulator with the
// given input, executes the reference interpreter on the same input, and
// returns both output streams.
func runBoth(t *testing.T, src string, input []float64, opts Options) (sim, ref []float64) {
	t.Helper()
	res, err := CompileModule("test.w2", []byte(src), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	drv := res.Driver

	arr := warpsim.NewArray(res.Module, warpsim.Config{})
	words, _, err := arr.Run(drv.EncodeInput(input))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	sim = drv.DecodeOutput(words)

	m, info, bag := Frontend("test.w2", []byte(src))
	if bag.HasErrors() {
		t.Fatalf("frontend: %s", bag.String())
	}
	var vals []interp.Value
	for _, v := range input {
		vals = append(vals, interp.FloatVal(v))
	}
	out, err := interp.RunModule(m, info, vals, interp.Limits{})
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	for _, v := range out {
		ref = append(ref, v.AsFloat())
	}
	return sim, ref
}

// approxEqual compares with float32 wire tolerance.
func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-4*scale
}

func checkStreams(t *testing.T, sim, ref []float64) {
	t.Helper()
	if len(sim) != len(ref) {
		t.Fatalf("stream lengths differ: sim=%d ref=%d\nsim: %v\nref: %v", len(sim), len(ref), sim, ref)
	}
	for i := range sim {
		if !approxEqual(sim[i], ref[i]) {
			t.Errorf("out[%d]: sim=%g ref=%g", i, sim[i], ref[i])
		}
	}
}

func TestEndToEndScale(t *testing.T) {
	src := `
module scale (in xs: float[8], out ys: float[8])
section 1 {
    function cell() {
        var i: int;
        var v: float;
        for i = 0 to 7 {
            receive(X, v);
            send(Y, v * 2.5 + 1.0);
        }
    }
}
`
	in := []float64{1, -2, 3.5, 0, 7, -0.25, 100, 9}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)
}

func TestEndToEndTwoSectionPipeline(t *testing.T) {
	src := `
module pipe (in xs: float[6], out ys: float[6])
section 1 of 2 {
    function square(v: float): float {
        return v * v;
    }
    function cell1() {
        var i: int;
        var v: float;
        for i = 0 to 5 {
            receive(X, v);
            send(Y, square(v) - 1.0);
        }
    }
}
section 2 of 2 {
    function cell2() {
        var i: int;
        var v: float;
        var acc: float = 0.0;
        for i = 0 to 5 {
            receive(X, v);
            acc = acc + v;
            send(Y, acc);
        }
    }
}
`
	in := []float64{1, 2, 3, 4, 5, 6}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)
}

func TestEndToEndControlFlow(t *testing.T) {
	src := `
module ctl (in xs: float[10], out ys: float[10])
section 1 {
    function cell() {
        var i: int;
        var v: float;
        for i = 0 to 9 {
            receive(X, v);
            if v > 0.0 {
                if v > 10.0 {
                    v = 10.0 + (v - 10.0) / 2.0;
                }
            } else {
                v = -v;
            }
            while v > 5.0 {
                v = v - 1.5;
            }
            send(Y, v);
        }
    }
}
`
	in := []float64{-3, 0, 2, 7.5, 12, 100, -50, 5.01, 4.99, 1}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)
}

func TestEndToEndArraysAndMath(t *testing.T) {
	src := `
module fir (in xs: float[16], out ys: float[16])
section 1 {
    function cell() {
        var w: float[4];
        var hist: float[4];
        var i: int;
        var j: int;
        var v: float;
        var acc: float;
        w[0] = 0.25; w[1] = 0.5; w[2] = 0.75; w[3] = 1.0;
        for j = 0 to 3 {
            hist[j] = 0.0;
        }
        for i = 0 to 15 {
            receive(X, v);
            hist[i % 4] = v;
            acc = 0.0;
            for j = 0 to 3 {
                acc = acc + w[j] * hist[j];
            }
            send(Y, sqrt(abs(acc)) + min(acc, 2.0));
        }
    }
}
`
	in := make([]float64, 16)
	for i := range in {
		in[i] = math.Sin(float64(i)*0.7) * 4
	}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)
}

func TestEndToEndIntStream(t *testing.T) {
	src := `
module ints (in xs: float[8], out ys: float[8])
section 1 {
    function cell() {
        var i: int;
        var n: int;
        for i = 0 to 7 {
            receive(X, n);
            send(Y, n * n % 97 + i);
        }
    }
}
`
	in := []float64{0, 1, 2, 3, 10, 25, 31, 63}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)
}

// TestPipeliningCorrectAndApplied verifies that software pipelining (a)
// actually triggers for a constant-trip float loop, and (b) preserves
// results exactly vs. the unpipelined compilation and the interpreter.
func TestPipeliningCorrectAndApplied(t *testing.T) {
	src := `
module mac (in xs: float[64], out ys: float[1])
section 1 {
    function cell() {
        var i: int;
        var v: float;
        var acc: float = 0.0;
        for i = 0 to 63 {
            receive(X, v);
            acc = acc + v * 0.5;
        }
        send(Y, acc);
    }
}
`
	res, err := CompileModule("mac.w2", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipelined := 0
	for _, fr := range res.Funcs {
		pipelined += fr.GenStats.LoopsPipelined
	}
	if pipelined == 0 {
		t.Error("expected the constant-trip loop to be software-pipelined")
	}

	in := make([]float64, 64)
	for i := range in {
		in[i] = float64(i%7) - 3.0
	}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)

	// Ablation: disable pipelining; results must be identical.
	simNoPipe, _ := runBoth(t, src, in, Options{Codegen: codegen.Options{DisablePipelining: true}})
	checkStreams(t, simNoPipe, ref)
}

func TestPipeliningSpeedsUpLoop(t *testing.T) {
	src := `
module dot (in xs: float[128], out ys: float[1])
section 1 {
    function cell() {
        var i: int;
        var a: float;
        var acc: float = 0.0;
        for i = 0 to 63 {
            receive(X, a);
            var b: float;
            receive(X, b);
            acc = acc + a * b;
        }
        send(Y, acc);
    }
}
`
	in := make([]float64, 128)
	for i := range in {
		in[i] = float64(i) * 0.01
	}
	cycles := func(opts Options) int64 {
		res, err := CompileModule("dot.w2", []byte(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		arr := warpsim.NewArray(res.Module, warpsim.Config{})
		_, stats, err := arr.Run(res.Driver.EncodeInput(in))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cycles
	}
	fast := cycles(Options{})
	slow := cycles(Options{Codegen: codegen.Options{DisablePipelining: true}})
	naive := cycles(Options{Codegen: codegen.Options{DisableScheduling: true, DisablePipelining: true}})
	if fast >= slow {
		t.Errorf("pipelined run (%d cycles) not faster than list-scheduled (%d cycles)", fast, slow)
	}
	if slow >= naive {
		t.Errorf("list-scheduled run (%d cycles) not faster than naive (%d cycles)", slow, naive)
	}
	t.Logf("cycles: pipelined=%d scheduled=%d naive=%d", fast, slow, naive)
}

func TestEndToEndNoStreams(t *testing.T) {
	// A generator module: no input, output only.
	src := `
module gen (out ys: float[10])
section 1 {
    function cell() {
        var i: int;
        for i = 0 to 9 {
            send(Y, float(i * i));
        }
    }
}
`
	sim, ref := runBoth(t, src, nil, Options{})
	checkStreams(t, sim, ref)
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := CompileModule("bad.w2", []byte("module m section 1 { function f() { x = 1; } }"), Options{}); err == nil {
		t.Error("semantic error must abort compilation")
	}
	if _, err := CompileModule("bad2.w2", []byte("module m section 1 {"), Options{}); err == nil {
		t.Error("syntax error must abort compilation")
	}
	// Entry with parameters cannot be a cell program.
	srcParam := `
module m
section 1 {
    function f(a: int): int { return a; }
}
`
	if _, err := CompileModule("bad3.w2", []byte(srcParam), Options{}); err == nil {
		t.Error("entry function with parameters must be rejected")
	}
}

func TestSpillPressureStillCorrect(t *testing.T) {
	// More than 60 simultaneously-live values forces spilling.
	src := "module spill (in xs: float[1], out ys: float[1])\nsection 1 {\n    function cell() {\n        var v: float;\n        receive(X, v);\n"
	// Declare 70 locals, all computed from v, all used afterwards.
	for i := 0; i < 70; i++ {
		src += varDecl(i)
	}
	src += "        var acc: float = 0.0;\n"
	for i := 0; i < 70; i++ {
		src += useDecl(i)
	}
	src += "        send(Y, acc);\n    }\n}\n"

	in := []float64{1.5}
	sim, ref := runBoth(t, src, in, Options{})
	checkStreams(t, sim, ref)

	res, err := CompileModule("spill.w2", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spills := 0
	for _, fr := range res.Funcs {
		spills += fr.GenStats.Spills
	}
	if spills == 0 {
		t.Error("expected register spills with 70 live values")
	}
}

func varDecl(i int) string {
	return "        var t" + itoa(i) + ": float = v * " + itoa(i+1) + ".0 + " + itoa(i) + ".5;\n"
}

func useDecl(i int) string {
	return "        acc = acc + t" + itoa(i) + ";\n"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestSequentialTimingsRecorded(t *testing.T) {
	src := `
module m (in xs: float[4], out ys: float[4])
section 1 {
    function cell() {
        var i: int;
        var v: float;
        for i = 0 to 3 {
            receive(X, v);
            send(Y, v);
        }
    }
}
`
	res, err := CompileModule("m.w2", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Funcs) != 1 || res.Funcs[0].CPUTime <= 0 {
		t.Error("per-function CPU time must be measured")
	}
	if res.Module.TotalWords() == 0 {
		t.Error("linked module is empty")
	}
	if res.Driver.InputElems() != 4 || res.Driver.OutputElems() != 4 {
		t.Errorf("driver streams wrong: in=%d out=%d", res.Driver.InputElems(), res.Driver.OutputElems())
	}
}
