// Package testclock provides the injectable fake clock shared by the fabric
// and gateway test suites. The production code paths take a `now func()
// time.Time`; tests hand them clock.Now and advance time explicitly, so
// liveness timeouts, speculation windows, and reaping decisions become
// deterministic instead of racing the wall clock.
package testclock

import (
	"sync"
	"time"
)

// Clock is a manually advanced clock. The zero value is not useful; construct
// one with At or AtUnix. All methods are safe for concurrent use — tests
// routinely read Now from the goroutine under test while the test body calls
// Advance.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// At returns a Clock frozen at t.
func At(t time.Time) *Clock {
	return &Clock{now: t}
}

// AtUnix returns a Clock frozen at the given Unix second. Most fabric tests
// only care about relative durations, so an arbitrary small epoch keeps the
// fixtures readable.
func AtUnix(sec int64) *Clock {
	return At(time.Unix(sec, 0))
}

// Now returns the current fake time. Pass the method value (clock.Now)
// wherever production code wants a `func() time.Time`.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative d is allowed (the clock
// moves backward); tests use that to probe non-monotonic-time hardening.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// Set jumps the clock to an absolute time.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}
