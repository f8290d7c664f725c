package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/ref"
)

// fmtString is Violation.String as it was written over fmt: the
// specification the appending rendering must match byte for byte.
func fmtString(v core.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", v.Rule.Name)
	for i, id := range v.Match {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", v.Rule.Pattern.Nodes[i].Var, id)
	}
	b.WriteString(")")
	return b.String()
}

func TestViolationStringMatchesFmt(t *testing.T) {
	n := 0
	for _, w := range gen.Workloads() {
		ds := w.Dataset()
		for _, v := range ref.Detect(ds.G, w.Sigma()) {
			if got, want := v.String(), fmtString(v); got != want {
				t.Fatalf("%s: String() = %q, want %q", w.Name(), got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("the workload rows hold no violation")
	}
	// ids the generators never produce: negative, the int32 extremes
	rule := gen.Workloads()[0].Sigma().Rules[0]
	for _, ids := range [][]graph.NodeID{
		{-1}, {-7, 0}, {math.MaxInt32, math.MinInt32}, {math.MaxInt32, -1, 0, 42},
	} {
		m := make(core.Match, len(rule.Pattern.Nodes))
		copy(m, ids)
		v := core.Violation{Rule: rule, Match: m}
		if got, want := v.String(), fmtString(v); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	t.Logf("%d generated violations rendered as fmt renders them", n)
}
