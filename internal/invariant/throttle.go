package invariant

import (
	"ebslab/internal/throttle"
)

// CheckThrottle replays a throttle group in audited mode and folds any
// broken grant laws into rep: delivered traffic never exceeds the effective
// cap, backlogs and queueing delays stay within the 4-second bound, and the
// per-VD throttled-second tallies sum to the group total.
func CheckThrottle(rep *Report, caps []throttle.Caps, demand [][]throttle.Demand) throttle.Result {
	res, msgs := new(throttle.Scratch).Replay(caps, demand, throttle.Replay{Audit: true})
	rep.AddAll("throttle/grants", msgs)
	return res
}

// CheckThrottleLending is CheckThrottle with the Appendix B lending
// mitigation enabled; the audit additionally asserts that lending only
// redistributes budget — summed effective caps never exceed summed nominal
// caps in either dimension.
func CheckThrottleLending(rep *Report, caps []throttle.Caps, demand [][]throttle.Demand, lend throttle.Lending) throttle.Result {
	res, msgs := new(throttle.Scratch).Replay(caps, demand, throttle.Replay{Lend: &lend, Audit: true})
	rep.AddAll("throttle/grants", msgs)
	return res
}
