//go:build race

package xrand

// The race detector makes sync.Pool drop items at random, so the test that
// counts allocations skips itself under it.
func init() { raceEnabled = true }
