package workload

import (
	"fmt"
	"strings"
)

// The rule archetypes, one per planted invariant, rendered in the rule DSL.
// Typed rules (sum, order, flag) bind the entity to one type; the rest use
// wildcard entities.

func rule(b *strings.Builder, name string, match []string, when, then string) {
	fmt.Fprintf(b, "rule %s {\n  match {\n", name)
	for _, m := range match {
		fmt.Fprintf(b, "    %s\n", m)
	}
	b.WriteString("  }\n  when {\n")
	if when != "" {
		fmt.Fprintf(b, "    %s\n", when)
	}
	fmt.Fprintf(b, "  }\n  then {\n    %s\n  }\n}\n", then)
}

func sumRule(b *strings.Builder, t, id int) {
	rule(b, fmt.Sprintf("sum-T%d-%d", t, id), []string{
		fmt.Sprintf("x: T%d", t), "a: integer", "b: integer", "c: integer",
		"x -p1-> a", "x -p2-> b", "x -p3-> c",
	}, "", "a.val + b.val = c.val")
}

func orderRule(b *strings.Builder, t, id int) {
	rule(b, fmt.Sprintf("order-T%d-%d", t, id), []string{
		fmt.Sprintf("x: T%d", t), "a: integer", "b: integer",
		"x -p4-> a", "x -p5-> b",
	}, "", "a.val >= b.val")
}

func flagRule(b *strings.Builder, t, id int) {
	rule(b, fmt.Sprintf("flag-T%d-%d", t, id), []string{
		fmt.Sprintf("x: T%d", t), "f: integer", "c: integer",
		"x -flag-> f", "x -p2-> c",
	}, "f.val = 1", "c.val = 7")
}

// driftRule bounds score drift along a path of hops "next" edges.
func driftRule(b *strings.Builder, hops, id int) {
	match := []string{"x0: _"}
	for i := 1; i <= hops; i++ {
		match = append(match, fmt.Sprintf("x%d: _", i))
	}
	match = append(match, "a: integer", "b: integer")
	for i := 1; i <= hops; i++ {
		match = append(match, fmt.Sprintf("x%d -next-> x%d", i-1, i))
	}
	match = append(match, "x0 -p0-> a", fmt.Sprintf("x%d -p0-> b", hops))
	rule(b, fmt.Sprintf("drift%d-%d", hops, id), match, "",
		fmt.Sprintf("abs(a.val - b.val) <= %d", hops*MaxDrift))
}

func peerRule(b *strings.Builder, id int) {
	rule(b, fmt.Sprintf("peer-%d", id), []string{
		"x: _", "y: _", "a: integer", "b: integer",
		"x -peer-> y", "y -peer-> x", "x -p0-> a", "y -p0-> b",
	}, "", fmt.Sprintf("abs(a.val - b.val) <= %d", MaxDrift))
}

func siblingRule(b *strings.Builder, rel, id int) {
	rule(b, fmt.Sprintf("sibling-R%d-%d", rel, id), []string{
		"x: _", "y: _", "z: _", "a: integer", "b: integer",
		fmt.Sprintf("x -R%d-> z", rel), fmt.Sprintf("y -R%d-> z", rel),
		"x -p0-> a", "y -p0-> b",
	}, "", fmt.Sprintf("abs(a.val - b.val) <= %d", 2*MaxDrift))
}

func followerRule(b *strings.Builder, id int) {
	rule(b, fmt.Sprintf("follower-%d", id), []string{
		"x: _", "y: _", "z: _", "a: integer", "b: integer",
		"x -follows-> z", "y -follows-> z", "x -p4-> a", "y -p4-> b",
	}, "", fmt.Sprintf("abs(a.val - b.val) <= %d", ValueRange))
}

// EffectivenessRules is the 41-rule set that catches every planted fault:
// sum, order and flag for each entity type, one drift rule and one peer
// rule. Only two of its rules have wildcard entities, so the admission gate
// decides it in milliseconds.
func EffectivenessRules() string {
	var b strings.Builder
	for t := 0; t < EntityTypes; t++ {
		sumRule(&b, t, t*3)
		orderRule(&b, t, t*3+1)
		flagRule(&b, t, t*3+2)
	}
	driftRule(&b, 1, EntityTypes*3)
	peerRule(&b, EntityTypes*3+1)
	return b.String()
}

// GeneratedRules is the mixed set of count rules: a wildcard core of drift
// chains of one to three hops (diameter up to 5), a peer cycle, three
// sibling rules and three follower rules, then typed rules dealt round-robin
// over the entity types. The set does not depend on the seed: the admission
// gate's cost swings by a third with the choice of typed rules, and that
// would be set-up noise, not signal. No wildcard rule carries a
// precondition, because the gate's search runs into its timeout on those
// (as it does on the interleaved sets of internal/gen); this set is decided
// in about half a second, so gate work is measured, not a timer.
func GeneratedRules(count int) string {
	var b strings.Builder
	id := 0
	next := func() int { id++; return id - 1 }
	driftRule(&b, 1, next())
	driftRule(&b, 2, next())
	driftRule(&b, 3, next())
	peerRule(&b, next())
	for _, rel := range []int{4, 17, 30} {
		siblingRule(&b, rel, next())
	}
	for k := 0; k < 3; k++ {
		followerRule(&b, next())
	}
	for k := 0; id < count; k++ {
		t := (k / 3) % EntityTypes
		switch k % 3 {
		case 0:
			sumRule(&b, t, next())
		case 1:
			orderRule(&b, t, next())
		case 2:
			flagRule(&b, t, next())
		}
	}
	return b.String()
}
