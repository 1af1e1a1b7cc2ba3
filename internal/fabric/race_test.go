//go:build race

package fabric

// The race detector makes sync.Pool drop items at random, so tests that
// count allocations skip themselves under it.
func init() { raceEnabled = true }
