// Package match implements homomorphism pattern matching for NGD detection,
// following the generic backtracking procedure Matchn/SubMatchn of the paper
// (§6.2): candidate selection per pattern node, edge verification, and hooks
// for literal-based pruning. It executes the matching orders internal/plan
// builds: this package defines the Plan shape but orders nothing. Both the
// batch detector (Dect) and the incremental ones (IncDect/PIncDect) drive
// it; the incremental algorithms additionally pin update pivots as pre-bound
// nodes.
package match

import (
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// Unbound marks an unmatched pattern node in a partial solution.
const Unbound graph.NodeID = -1

// EdgeCheck verifies one pattern edge between the step's node and an
// already-bound node.
type EdgeCheck struct {
	Edge  int  // pattern edge index
	Out   bool // true: edge goes step.Node -> Other; false: Other -> step.Node
	Other int  // pattern node index already bound (equals step.Node for loops)
}

// Step extends a partial solution by one pattern node.
type Step struct {
	Node int // pattern node to bind
	// Candidate generation: when AnchorEdge >= 0 candidates come from the
	// adjacency of the bound node AnchorFrom along that edge; otherwise the
	// step is a seed and candidates come from the label index — or, when
	// SeedPred >= 0, from the attribute index run of that filter predicate.
	AnchorEdge int
	AnchorOut  bool // true: candidates = Out(h(AnchorFrom)); false: In(...)
	AnchorFrom int
	// SeedPred indexes Plan.Filters[Node].Preds: the predicate whose
	// attribute-index run seeds this step (-1: scan the label bucket).
	// Only meaningful for seed steps (AnchorEdge < 0).
	SeedPred int
	Checks   []EdgeCheck
}

// Plan is a matching order for (the unbound part of) a compiled pattern.
type Plan struct {
	CP    *pattern.Compiled
	Bound []int  // pre-bound pattern nodes (update pivots), may be empty
	Steps []Step // one per remaining pattern node
	// Filters holds the compiled candidate predicates per pattern node
	// (§6.2 step (3)); nil when the rule has no prunable literal.
	Filters Filters
}
