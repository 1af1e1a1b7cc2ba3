//go:build race

package scenario

// The race detector makes sync.Pool drop items at random, so tests that
// compare allocation counts between runs skip themselves under it.
func init() { raceEnabled = true }
