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
func (a *cacheAudit) Touch(id int64) bool {
	hit := a.inner.Touch(id)
	if hit {
		a.hits++
	} else {
		a.misses++
	}
	if n := a.inner.Len(); n > a.capacity && len(a.violations) < maxPerLaw {
		a.violations = append(a.violations,
			fmt.Sprintf("resident set %d pages exceeds capacity %d after touching page id %d", n, a.capacity, id))
	}
	return hit
}

// CheckStream holds s to the accesses it numbers (law conserve/cache): ids
// follow page order, each touch's id names its page, and there is one touch
// per page. It walks the whole stream, so it runs once per stream.
func CheckStream(rep *Report, accesses []cache.Access, s cache.Stream) {
	const law = "conserve/cache"
	for i := 1; i < len(s.Pages); i++ {
		if s.Pages[i] <= s.Pages[i-1] {
			rep.Addf(law, "ids %d and %d number pages %d and %d out of order", i-1, i, s.Pages[i-1], s.Pages[i])
			break
		}
	}
	var wantPages int64
	misnamed := int64(-1) // the first touch whose id names another page
	for _, ac := range accesses {
		if ac.Size <= 0 {
			rep.Addf(law, "access at offset %d has non-positive size %d", ac.Offset, ac.Size)
			continue
		}
		first := ac.Offset / cache.PageSize
		last := (ac.Offset + int64(ac.Size) - 1) / cache.PageSize
		for p := first; p <= last && misnamed < 0; p++ {
			k := wantPages + p - first
			if k < int64(len(s.IDs)) && (s.IDs[k] < 0 || int(s.IDs[k]) >= len(s.Pages) || s.Pages[s.IDs[k]] != p) {
				misnamed = k
			}
		}
		wantPages += last - first + 1
	}
	if misnamed >= 0 {
		rep.Addf(law, "page touch %d has id %d, which does not number its page", misnamed, s.IDs[misnamed])
	}
	if int64(len(s.IDs)) != wantPages {
		rep.Addf(law, "stream has %d page touches for %d pages of accesses", len(s.IDs), wantPages)
	}
}

// SimulateChecked replays s through an audited copy of c and folds into rep
// a resident set past capacity and any disagreement between the stream's
// length, the simulator's counters and the audit's own tally.
func SimulateChecked(rep *Report, c cache.Cache, s cache.Stream) cache.SimResult {
	const law = "conserve/cache"
	s.Reserve(c) // the audit wrapper hides the policy from Simulate's
	audit := &cacheAudit{inner: c, capacity: c.Capacity()}
	res := cache.Simulate(audit, s)
	rep.AddAll(law, audit.violations)
	touched := audit.hits + audit.misses
	if touched != int64(len(s.IDs)) {
		rep.Addf(law, "cache saw %d page touches of a %d-touch stream", touched, len(s.IDs))
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

// CheckInclusion holds a stack policy's hit counts on one stream, hits[i]
// at caps[i] pages with caps increasing, to the inclusion property (Mattson
// et al., 1970): they never fall as capacity grows. LRU has it; FIFO does
// not (Belady's anomaly).
func CheckInclusion(rep *Report, policy string, caps []int, hits []int64) {
	const law = "cache/inclusion"
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			rep.Addf(law, "%s hit %d pages at %d pages of capacity but %d at %d", policy, hits[i], caps[i], hits[i-1], caps[i-1])
		}
	}
}
