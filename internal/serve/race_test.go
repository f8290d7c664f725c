//go:build race

package serve_test

// The race detector makes sync.Pool drop a share of what is put back, so a
// byte budget that rests on a pooled buffer does not hold under it.
func init() { raceEnabled = true }
