//go:build race

package netblock

// The race detector instruments and reshuffles the allocator, so the test
// that counts allocations skips itself under it.
func init() { raceEnabled = true }
