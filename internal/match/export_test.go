package match

// IntBounds exposes intBounds to the package's external tests (they live in
// match_test so they can draw plans from internal/plan, which imports match).
var IntBounds = intBounds
