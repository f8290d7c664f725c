package reason

import (
	"testing"

	"ngd/internal/core"
)

// searchWhole makes the analyses search every obligation as one group until
// t ends: the one-group case that the grouped search must agree with.
func searchWhole(t *testing.T) {
	grouped := groupObligations
	groupObligations = func(_ int, obls []implication, _ core.Match) [][]implication {
		return [][]implication{obls}
	}
	t.Cleanup(func() { groupObligations = grouped })
}

// setMaxBranches sets the branch budget of each group's search to n until
// t ends.
func setMaxBranches(t *testing.T, n int) {
	old := maxBranches
	maxBranches = n
	t.Cleanup(func() { maxBranches = old })
}
