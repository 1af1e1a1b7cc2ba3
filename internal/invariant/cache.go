package invariant

import (
	"fmt"

	"ebslab/internal/cache"
)

// cacheAudit wraps a cache.Cache and enforces the cache-layer accounting law
// on every touch: each access is exactly a hit or a miss (hits + misses ==
// accesses, tallied independently of the simulator's own counters) and the
// resident set never exceeds capacity. It implements cache.Cache, so it
// drops into cache.Simulate transparently. A policy's capacity is fixed, so
// it is read once, at wrapping.
type cacheAudit struct {
	inner        cache.Cache
	capacity     int
	hits, misses int64
	violations   []string
}

func (a *cacheAudit) Name() string  { return a.inner.Name() }
func (a *cacheAudit) Len() int      { return a.inner.Len() }
func (a *cacheAudit) Capacity() int { return a.capacity }

// Touch implements cache.Cache, auditing the inner policy.
func (a *cacheAudit) Touch(page int64, write bool) bool {
	hit := a.inner.Touch(page, write)
	if hit {
		a.hits++
	} else {
		a.misses++
	}
	if n := a.inner.Len(); n > a.capacity && len(a.violations) < maxPerLaw {
		a.violations = append(a.violations,
			fmt.Sprintf("resident set %d pages exceeds capacity %d after touching page %d", n, a.capacity, page))
	}
	return hit
}

// SimulateChecked replays accesses through an audited copy of c and folds
// any violations — including any disagreement between the simulator's
// hit/total counters and the audit's independent tally — into rep.
func SimulateChecked(rep *Report, c cache.Cache, accesses []cache.Access) cache.SimResult {
	const law = "conserve/cache"
	audit := &cacheAudit{inner: c, capacity: c.Capacity()}
	res := cache.Simulate(audit, accesses)
	rep.AddAll(law, audit.violations)

	// Accesses expand to page touches; recount them independently.
	var wantPages int64
	for _, ac := range accesses {
		if ac.Size <= 0 {
			rep.Addf(law, "access at offset %d has non-positive size %d", ac.Offset, ac.Size)
			continue
		}
		first := ac.Offset / cache.PageSize
		last := (ac.Offset + int64(ac.Size) - 1) / cache.PageSize
		wantPages += last - first + 1
	}
	touched := audit.hits + audit.misses
	if touched != wantPages {
		rep.Addf(law, "cache saw %d page touches for %d pages of accesses", touched, wantPages)
	}
	if res.PageTotal != touched {
		rep.Addf(law, "simulator counted %d touches, audit counted %d", res.PageTotal, touched)
	}
	if res.PageHits != audit.hits {
		rep.Addf(law, "simulator counted %d hits, audit counted %d", res.PageHits, audit.hits)
	}
	if res.PageHits < 0 || res.PageHits > res.PageTotal {
		rep.Addf(law, "hits %d outside [0, %d]", res.PageHits, res.PageTotal)
	}
	return res
}
