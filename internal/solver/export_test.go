package solver

import "math/big"

// SolveWhole decides s as one part, on one tableau: the whole-system solve
// that Solve's split must agree with wherever it decides.
func (s *System) SolveWhole(opts Options) (Status, []*big.Rat) {
	return s.solve(opts)
}

// SetPivotsPerLine sets the simplex's pivot cap and returns the function
// that restores it.
func SetPivotsPerLine(n int) (restore func()) {
	old := pivotsPerLine
	pivotsPerLine = n
	return func() { pivotsPerLine = old }
}

// SetMaxNodes sets each part's branch-and-bound node cap and returns the
// function that restores it.
func SetMaxNodes(n int) (restore func()) {
	old := maxNodes
	maxNodes = n
	return func() { maxNodes = old }
}
