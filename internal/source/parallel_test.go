package source

import (
	"testing"
)

// TestMergeOrderedDeterministic checks that merging producer bags in
// declaration order renders the same output regardless of which producer
// recorded first, and that equal-position diagnostics keep bag-merge order.
func TestMergeOrderedDeterministic(t *testing.T) {
	at := func(off int) Pos { return Pos{File: "m.w2", Offset: off, Line: 1, Col: off + 1} }

	build := func(fillOrder []int) string {
		bags := make([]*DiagBag, 3)
		for i := range bags {
			bags[i] = &DiagBag{}
		}
		// Fill the bags in the given (completion) order; bag i always holds
		// the same diagnostics.
		for _, i := range fillOrder {
			switch i {
			case 0:
				bags[0].Errorf(at(10), "first at 10")
				bags[0].Errorf(at(10), "second at 10")
			case 1:
				bags[1].Errorf(at(5), "at 5")
			case 2:
				bags[2].Warnf(at(10), "warn at 10")
			}
		}
		var out DiagBag
		out.MergeOrdered(bags[0], nil, bags[1], bags[2])
		return out.String()
	}

	want := build([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := build(order); got != want {
			t.Fatalf("fill order %v changed output:\n got: %q\nwant: %q", order, got, want)
		}
	}

	// Position sort still applies across bags; within a position, bag order
	// then insertion order decide.
	var out DiagBag
	b0, b1, b2 := &DiagBag{}, &DiagBag{}, &DiagBag{}
	b0.Errorf(at(10), "first at 10")
	b0.Errorf(at(10), "second at 10")
	b1.Errorf(at(5), "at 5")
	b2.Warnf(at(10), "warn at 10")
	out.MergeOrdered(b0, b1, b2)
	all := out.All()
	wantMsgs := []string{"at 5", "first at 10", "second at 10", "warn at 10"}
	if len(all) != len(wantMsgs) {
		t.Fatalf("got %d diagnostics, want %d", len(all), len(wantMsgs))
	}
	for i, d := range all {
		if d.Msg != wantMsgs[i] {
			t.Errorf("diag %d = %q, want %q", i, d.Msg, wantMsgs[i])
		}
	}
	if out.ErrorCount() != 3 {
		t.Errorf("ErrorCount = %d, want 3", out.ErrorCount())
	}
}
