package codegen

import (
	"fmt"

	"repro/internal/ir"
)

// Options selects code-generation strategies. The zero value is the full
// compiler; the flags exist for the ablation benchmarks (scheduling off,
// pipelining off) that quantify what each phase buys.
type Options struct {
	// DisableScheduling emits one operation per word in program order.
	DisableScheduling bool
	// DisablePipelining turns off software pipelining; innermost loops are
	// list-scheduled like any other block.
	DisablePipelining bool
}

// GenStats reports code-generation work and outcome, consumed by the
// compile-cost model and the quality benchmarks.
type GenStats struct {
	MachineOps     int // ops after instruction selection
	Words          int // emitted instruction words
	Spills         int
	LoopsSeen      int
	LoopsPipelined int
	PipelineII     int // sum of achieved IIs (for averaging)
}

// Generate runs phase 3 on an optimized, inlined, inverted IR function and
// returns the scheduled machine code.
func Generate(f *ir.Func, isEntry bool, opts Options) (*PFunc, GenStats, error) {
	var st GenStats
	mf, err := Select(f, isEntry)
	if err != nil {
		return nil, st, err
	}
	st.MachineOps = mf.NumOps()

	pf, err := Allocate(mf)
	if err != nil {
		return nil, st, err
	}
	st.Spills = pf.Spilled

	var out []*PBlock
	for _, b := range pf.Blocks {
		if b.SelfLoop {
			st.LoopsSeen++
		}
		if !opts.DisablePipelining && b.SelfLoop && b.Loop != nil && len(b.Ops) > 0 {
			exitLabel := b.Ops[len(b.Ops)-1].Sym
			blocks, res := TryPipeline(pf, b, exitLabel)
			if res.Applied {
				st.LoopsPipelined++
				st.PipelineII += res.II
				out = append(out, blocks...)
				continue
			}
		}
		if opts.DisableScheduling {
			SequentialBlock(b)
		} else {
			if _, err := ScheduleBlock(b); err != nil {
				return nil, st, fmt.Errorf("%s: %w", pf.Name, err)
			}
		}
		out = append(out, b)
	}
	pf.Blocks = out
	for _, b := range pf.Blocks {
		st.Words += len(b.Scheduled)
	}
	return pf, st, nil
}

// WordCount returns the total scheduled words of a PFunc.
func WordCount(pf *PFunc) int {
	n := 0
	for _, b := range pf.Blocks {
		n += len(b.Scheduled)
	}
	return n
}
