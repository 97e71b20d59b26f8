// Package wgen generates the synthetic W2 workloads of the paper's
// evaluation (§4.1): functions of five controlled sizes derived from a
// Monte-Carlo-style simulation kernel, programs S_n containing n copies of
// one size, and the nine-function mechanical-engineering "user program" of
// §4.3.
//
// Each generated function is a loop nest (deeply nested for the larger
// sizes) of floating-point computation — "representative with regard to
// compilation speed of a computation kernel for the Warp array". The
// challenge for the compiler is keeping the pipelined functional units
// busy, so the kernels are float-heavy with real data flow.
package wgen

import (
	"fmt"
	"strings"
)

// Size selects one of the paper's five function sizes.
type Size int

const (
	Tiny   Size = iota // ~4 lines
	Small              // ~35 lines
	Medium             // ~100 lines
	Large              // ~280 lines
	Huge               // ~360 lines
)

// Sizes lists all five sizes in ascending order.
var Sizes = []Size{Tiny, Small, Medium, Large, Huge}

// Lines returns the paper's nominal source-line count for the size.
func (s Size) Lines() int {
	switch s {
	case Tiny:
		return 4
	case Small:
		return 35
	case Medium:
		return 100
	case Large:
		return 280
	case Huge:
		return 360
	}
	return 0
}

// String returns the paper's name for the size (f_tiny ... f_huge).
func (s Size) String() string {
	switch s {
	case Tiny:
		return "f_tiny"
	case Small:
		return "f_small"
	case Medium:
		return "f_medium"
	case Large:
		return "f_large"
	case Huge:
		return "f_huge"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// rng is a small deterministic xorshift generator so workloads are
// reproducible without importing math/rand's global state.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(xs []string) string { return xs[r.intn(len(xs))] }

// Function emits one synthetic function of the given size as W2 source.
// The text is deterministic in (name, size, seed). The function takes no
// parameters and produces its result with send(Y, ...), so it can serve as
// a section entry.
func Function(name string, size Size, seed uint64) string {
	g := &gen{rng: newRng(seed ^ hash(name)), name: name}
	return g.function(size)
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type gen struct {
	rng  *rng
	name string
	buf  strings.Builder
	ind  int
	line int
	seq  int
}

func (g *gen) w(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("    ", g.ind))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
	g.line++
}

func (g *gen) fresh(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s%d", prefix, g.seq)
}

// function builds the body as a sequence of Monte-Carlo kernel blocks until
// the target line count is reached.
func (g *gen) function(size Size) string {
	target := size.Lines()
	g.w("function %s() {", g.name)
	g.ind++

	if size == Tiny {
		// The 4-line function: the minimal cell computation.
		g.w("var v: float = 2.5;")
		g.w("send(Y, v * v + 0.5);")
	} else {
		// Shared state for all kernels.
		g.w("var state: float = %d.5;", 1+g.rng.intn(9))
		g.w("var buf: float[32];")
		g.w("var t: float;")
		g.w("var i: int;")
		g.w("var j: int;")
		if size >= Medium {
			g.w("var k: int;")
		}
		// Reserve lines for the trailing send and closing brace.
		for g.line < target-2 {
			remaining := target - 2 - g.line
			g.kernel(size, remaining)
		}
		g.w("send(Y, state);")
	}

	g.ind--
	g.w("}")
	return g.buf.String()
}

// kernel emits one loop-nest block sized to fit in at most `budget` lines.
// Two flavours alternate: recurrence-heavy kernels (every statement feeds
// the next through the accumulator — list-scheduled) and pipeline-friendly
// kernels (a deep non-recurrent chain folded into the accumulator once per
// iteration — exactly what modulo scheduling overlaps).
func (g *gen) kernel(size Size, budget int) {
	depth := 2
	if size >= Large {
		depth = 3
	}
	if size == Medium && g.rng.intn(2) == 0 {
		depth = 3
	}
	// A depth-d kernel needs roughly 2d + body lines; shrink to fit.
	for depth > 1 && budget < 2*depth+6 {
		depth--
	}
	if budget < 8 {
		// Tail filler: cheap straight-line statements.
		for n := 0; n < budget; n++ {
			g.w("state = state * 0.5 + %d.25;", g.rng.intn(7))
		}
		return
	}

	bodyBudget := budget - 2*depth - 3 // loop headers/braces + acc decl + fold
	acc := g.fresh("acc")
	g.w("var %s: float = 0.0;", acc)

	pipelineFriendly := g.rng.intn(2) == 0
	if pipelineFriendly {
		depth = 1 // innermost self-loops are what the pipeliner handles
	}

	vars := []string{"i", "j", "k"}[:depth]
	bounds := []int{15, 7, 3}
	if pipelineFriendly {
		// The buffer is indexed directly by the induction variable, so the
		// trip count stays within its 32 elements.
		bounds = []int{31}
	}
	extra := g.rng.intn(8)
	if pipelineFriendly {
		extra = 0
	}
	for d := 0; d < depth; d++ {
		g.w("for %s = 0 to %d {", vars[d], bounds[d]+extra)
		g.ind++
	}

	if pipelineFriendly {
		g.pipelineBody(acc, bodyBudget)
		for d := depth - 1; d >= 0; d-- {
			g.ind--
			g.w("}")
		}
		g.w("state = state * 0.5 + %s * 0.01;", acc)
		return
	}

	// Innermost statements: float-heavy expressions with array traffic —
	// the kind of code software pipelining exists for.
	// Expressions and updates are chosen contractive (coefficient sums
	// below one with bounded additive terms) so generated kernels stay
	// finite in float32 on the cell.
	exprs := []string{
		"t = float(i * 3 + j) * 0.37 + %s * 0.25;",
		"t = sqrt(abs(%s) + 1.5) * 0.81;",
		"t = max(%s, buf[j %% 32]) * 0.25 + min(t, 4.0);",
		"t = (t + %s) * 0.25 + float(j);",
		"t = buf[(i + j) %% 32] * 0.5 - %s * 0.0625;",
	}
	updates := []string{
		"%s = %s * 0.5 + t * 0.25;",
		"%s = %s * 0.5 + abs(t) * 0.375;",
		"%s = %s * 0.25 + min(t * t, 64.0) * 0.125;",
	}
	inner := bodyBudget - 2 // leave room for buf store and conditional
	if inner < 2 {
		inner = 2
	}
	if inner > 12 {
		inner = 12
	}
	for n := 0; n < inner; n++ {
		if n%2 == 0 {
			g.w(g.rng.pick(exprs), acc)
		} else {
			u := g.rng.pick(updates)
			g.w(u, acc, acc)
		}
	}
	g.w("buf[%s %% 32] = %s;", vars[depth-1], acc)

	for d := depth - 1; d >= 0; d-- {
		g.ind--
		g.w("}")
	}
	g.w("if %s > 1000.0 {", acc)
	g.ind++
	g.w("%s = %s * 0.001;", acc, acc)
	g.ind--
	g.w("}")
	g.w("state = state * 0.5 + %s * 0.01;", acc)
}

// pipelineBody emits a deep non-recurrent float chain on t (loads, fmuls,
// fadds) folded into the accumulator once — the classic software-pipelining
// workload: long per-iteration critical path, short loop-carried recurrence.
func (g *gen) pipelineBody(acc string, budget int) {
	// No modular indexing: integer remainder is an unpipelined 10-cycle
	// ALU operation on this machine and would dominate the initiation
	// interval. The loop bound keeps i within the buffer.
	chain := []string{
		"t = float(i) * 0.37 + 1.5;",
		"t = t * 0.5 + float(i) * 0.25;",
		"t = buf[i] * 0.5 + t * 0.25;",
		"t = t * 0.75 + 0.125;",
		"t = min(t, 8.0) + max(t * 0.125, -2.0);",
		"t = t * 0.5 - buf[i] * 0.125;",
	}
	n := budget - 2
	if n < 3 {
		n = 3
	}
	if n > 10 {
		n = 10
	}
	g.w(chain[0])
	for k := 1; k < n; k++ {
		g.w(chain[1+g.rng.intn(len(chain)-1)])
	}
	g.w("%s = %s * 0.5 + t * 0.03125;", acc, acc)
	g.w("buf[i] = t;")
}

// SyntheticProgram builds the paper's S_n test program: n functions of one
// size in a single section. The last function is the section entry. The
// module's only stream is its output (the synthetic kernels consume no
// input), so compiled programs run to completion on the simulator.
func SyntheticProgram(size Size, nfuncs int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module s%d_%s (out ys: float[%d])\n\n", nfuncs, strings.TrimPrefix(size.String(), "f_"), nfuncs)
	sb.WriteString("section 1 of 1 {\n")
	for i := 1; i <= nfuncs; i++ {
		name := fmt.Sprintf("%s_%d", strings.TrimPrefix(size.String(), "f_"), i)
		fn := Function(name, size, uint64(i)*7919)
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
	}
	sb.WriteString("}\n")
	return []byte(sb.String())
}

// SmallFuncsProgram builds the paper's worst case: n tiny-to-small
// functions (4–24 lines, cycling deterministically) in a single section.
// Per-function dispatch overhead dominates modules like this — the workload
// where the paper measured no speedup and where batching earns its keep.
func SmallFuncsProgram(nfuncs int) []byte {
	if nfuncs < 1 {
		nfuncs = 1
	}
	lineCounts := []int{4, 9, 14, 19, 24, 6, 11, 16}
	var sb strings.Builder
	fmt.Fprintf(&sb, "module small%d (out ys: float[%d])\n\n", nfuncs, nfuncs)
	sb.WriteString("section 1 of 1 {\n")
	for i := 1; i <= nfuncs; i++ {
		name := fmt.Sprintf("tiny_%d", i)
		fn := sizedFunction(name, lineCounts[(i-1)%len(lineCounts)], uint64(i)*2654435761)
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
	}
	sb.WriteString("}\n")
	return []byte(sb.String())
}

// MixedProgram builds the straggler workload: one huge function followed by
// n tiny-to-small ones (4–24 lines, cycling deterministically) in a single
// section. The huge function dominates the parallel region's wall clock
// while the tiny ones finish almost immediately — the shape where a barrier
// master idles longest and an overlapped pipeline (frontend racing the
// fleet, sections linked as they stream in) wins the most. The last tiny
// function is the section entry.
func MixedProgram(nTiny int) []byte {
	if nTiny < 1 {
		nTiny = 1
	}
	lineCounts := []int{4, 9, 14, 19, 24, 6, 11, 16}
	var sb strings.Builder
	fmt.Fprintf(&sb, "module mixed%d (out ys: float[%d])\n\n", nTiny, nTiny+1)
	sb.WriteString("section 1 of 1 {\n")
	emit := func(fn string) {
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
	}
	emit(Function("huge_1", Huge, 7919))
	for i := 1; i <= nTiny; i++ {
		name := fmt.Sprintf("tiny_%d", i)
		emit(sizedFunction(name, lineCounts[(i-1)%len(lineCounts)], uint64(i)*2654435761))
	}
	sb.WriteString("}\n")
	return []byte(sb.String())
}

// MultiSectionProgram builds a program with one function per section — the
// original Warp usage where every section runs on its own group of cells.
// Each section forwards its input and adds its own result, so the sections
// form a pipeline.
func MultiSectionProgram(size Size, nsections int) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module m%d_%s (out ys: float[%d])\n\n", nsections, strings.TrimPrefix(size.String(), "f_"), nsections)
	for s := 1; s <= nsections; s++ {
		fmt.Fprintf(&sb, "section %d of %d {\n", s, nsections)
		name := fmt.Sprintf("cell_%d", s)
		fn := forwardingFunction(name, size, uint64(s)*104729, s-1)
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
		sb.WriteString("}\n")
		if s < nsections {
			sb.WriteString("\n")
		}
	}
	return []byte(sb.String())
}

// forwardingFunction is a synthetic function that first relays `relay`
// upstream values from X to Y (so earlier sections' outputs pass through),
// then computes its kernel and sends its own result.
func forwardingFunction(name string, size Size, seed uint64, relay int) string {
	g := &gen{rng: newRng(seed ^ hash(name)), name: name}
	target := size.Lines()
	g.w("function %s() {", g.name)
	g.ind++
	if relay > 0 {
		g.w("var r: int;")
		g.w("var rv: float;")
		g.w("for r = 0 to %d {", relay-1)
		g.ind++
		g.w("receive(X, rv);")
		g.w("send(Y, rv);")
		g.ind--
		g.w("}")
	}
	g.w("var state: float = 3.5;")
	g.w("var buf: float[32];")
	g.w("var t: float;")
	g.w("var i: int;")
	g.w("var j: int;")
	g.w("var k: int;")
	for g.line < target-2 {
		g.kernel(size, target-2-g.line)
	}
	g.w("send(Y, state);")
	g.ind--
	g.w("}")
	return g.buf.String()
}

// WideProgram builds the frontend-scaling workload: nfuncs same-sized
// medium functions spread evenly across nsections sections (earlier sections
// take the remainder). Every function costs the frontend about the same, so
// the module's parse+check wall time under a parallel frontend should shrink
// toward the cost of one function — the shape BenchmarkParallelFrontend
// measures. Each section's entry is a forwarding function, so the sections
// form a runnable pipeline exactly like MultiSectionProgram's.
func WideProgram(nfuncs, nsections int) []byte {
	if nsections < 1 {
		nsections = 1
	}
	if nfuncs < nsections {
		nfuncs = nsections
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "module wide%dx%d (out ys: float[%d])\n\n", nfuncs, nsections, nsections)
	per := nfuncs / nsections
	rem := nfuncs % nsections
	fid := 0
	for s := 1; s <= nsections; s++ {
		n := per
		if s <= rem {
			n++
		}
		fmt.Fprintf(&sb, "section %d of %d {\n", s, nsections)
		emit := func(fn string) {
			for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
				sb.WriteString("    " + line + "\n")
			}
		}
		for i := 1; i < n; i++ {
			fid++
			emit(Function(fmt.Sprintf("wide_%d", fid), Medium, uint64(fid)*6700417))
		}
		fid++
		emit(forwardingFunction(fmt.Sprintf("wide_%d", fid), Medium, uint64(fid)*6700417, s-1))
		sb.WriteString("}\n")
		if s < nsections {
			sb.WriteString("\n")
		}
	}
	return []byte(sb.String())
}

// SkewedProgram builds the straggler-section workload: nsections sections
// where section 1 holds the bulk of the compile cost — nHeavy small
// functions (20–60 lines, cycling deterministically) plus its forwarding
// entry — while every other section is a single tiny forwarding entry. Under
// a static per-section plan the heavy section's worker queue drags while the
// tiny sections' finish instantly: exactly the regime where one dispatch
// queue shared by every section lets the idle slots drain the straggler's
// units. Function sizes stay small enough that the
// heavy section's combined code fits a cell's 16K-word store.
func SkewedProgram(nsections, nHeavy int) []byte {
	if nsections < 2 {
		nsections = 2
	}
	if nHeavy < 4 {
		nHeavy = 4
	}
	if nHeavy > 15 {
		nHeavy = 15
	}
	lineCounts := []int{35, 60, 20, 45, 25, 55, 30, 40}
	var sb strings.Builder
	fmt.Fprintf(&sb, "module skew%dx%d (out ys: float[%d])\n\n", nHeavy, nsections, nsections)
	emit := func(fn string) {
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
	}
	sb.WriteString(fmt.Sprintf("section 1 of %d {\n", nsections))
	for i := 1; i <= nHeavy; i++ {
		emit(sizedFunction(fmt.Sprintf("heavy_%d", i), lineCounts[(i-1)%len(lineCounts)], uint64(i)*15485863))
	}
	emit(forwardingFunction("heavy_entry", Small, 15485863, 0))
	sb.WriteString("}\n")
	for s := 2; s <= nsections; s++ {
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "section %d of %d {\n", s, nsections)
		emit(forwardingFunction(fmt.Sprintf("lite_%d", s), Tiny, uint64(s)*32452843, s-1))
		sb.WriteString("}\n")
	}
	return []byte(sb.String())
}

// UserProgram reproduces the structure of §4.3's mechanical-engineering
// application: three section programs with three functions each. Per
// section, two small functions (5–45 lines, the paper's 2–6 minute
// compiles) and one ~300-line entry (the 19–22 minute compiles).
func UserProgram() []byte {
	var sb strings.Builder
	sb.WriteString("module mechapp (out ys: float[3])\n\n")
	smallLines := []int{8, 45, 12, 30, 5, 38} // between 5 and 45 lines
	si := 0
	for s := 1; s <= 3; s++ {
		fmt.Fprintf(&sb, "section %d of 3 {\n", s)
		for f := 1; f <= 2; f++ {
			name := fmt.Sprintf("aux_%d_%d", s, f)
			fn := sizedFunction(name, smallLines[si], uint64(s*10+f))
			si++
			for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
				sb.WriteString("    " + line + "\n")
			}
		}
		name := fmt.Sprintf("main_%d", s)
		fn := sizedFunction(name, 300, uint64(s*100))
		for _, line := range strings.Split(strings.TrimRight(fn, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
		sb.WriteString("}\n")
		if s < 3 {
			sb.WriteString("\n")
		}
	}
	return []byte(sb.String())
}

// sizedFunction emits a function with an explicit target line count.
func sizedFunction(name string, lines int, seed uint64) string {
	g := &gen{rng: newRng(seed ^ hash(name)), name: name}
	g.w("function %s() {", g.name)
	g.ind++
	if lines <= 6 {
		g.w("var v: float = 1.5;")
		g.w("send(Y, v * 3.0 - 0.25);")
	} else {
		g.w("var state: float = 2.5;")
		g.w("var buf: float[32];")
		g.w("var t: float;")
		g.w("var i: int;")
		g.w("var j: int;")
		g.w("var k: int;")
		size := Small
		if lines > 150 {
			size = Large
		} else if lines > 60 {
			size = Medium
		}
		for g.line < lines-2 {
			g.kernel(size, lines-2-g.line)
		}
		g.w("send(Y, state);")
	}
	g.ind--
	g.w("}")
	return g.buf.String()
}
