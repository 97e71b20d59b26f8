package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
)

// TestWarningsIdenticalAcrossModes: a module in which every function owns a
// frontend warning (it discards a call result) prints the same warnings, in
// the same order, when compiled sequentially, on a LocalPool and on RPC
// workers — each function master hands back exactly its own warnings.
func TestWarningsIdenticalAcrossModes(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("module warn (out ys: float[1])\n")
	for s := 1; s <= 2; s++ {
		fmt.Fprintf(&sb, "section %d {\n    function f0(): int { abs(1); return 1; }\n", s)
		for i := 1; i < 12; i++ {
			fmt.Fprintf(&sb, "    function f%d(): int { f%d(); return %d; }\n", i, i-1, i)
		}
		sb.WriteString("    function cell() { f11(); }\n}\n")
	}
	src := []byte(sb.String())

	seq, err := compiler.CompileModule("warn.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Warnings) != 26 {
		t.Fatalf("sequential compile printed %d warnings, want 26: %q", len(seq.Warnings), seq.Warnings)
	}
	want := strings.Join(seq.Warnings, "\n")

	par, _, err := core.ParallelCompile("warn.w2", src, NewLocalPool(2), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(par.Warnings, "\n"); got != want {
		t.Errorf("par warnings differ:\n--- par\n%s\n--- seq\n%s", got, want)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		ln, addr, err := ServeWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, addr)
	}
	pool, err := DialPool(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rpc, _, err := core.ParallelCompile("warn.w2", src, pool, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rpc.Warnings, "\n"); got != want {
		t.Errorf("rpc warnings differ:\n--- rpc\n%s\n--- seq\n%s", got, want)
	}
}
