// Package throttle models the hypervisor's per-VD traffic throttling (§5):
// every virtual disk carries a throughput cap and an IOPS cap (read+write
// aggregated, like other EBS vendors); IOs beyond the cap queue in the
// hypervisor. The package measures the symptoms the paper reports (abundant
// Resource Available Rate during throttles, one-sided write-dominated
// throttling) and implements the "limited lending" mitigation of Appendix B
// together with its evaluation metrics (reduction rate, lending gain).
package throttle

import (
	"fmt"
	"math"

	"ebslab/internal/stats"
)

// Caps is a VD's subscription: both dimensions are read+write aggregates.
type Caps struct {
	Tput float64 // bytes/s
	IOPS float64 // ops/s
}

// Demand is one second of offered load from a VD.
type Demand struct {
	ReadBps   float64
	WriteBps  float64
	ReadIOPS  float64
	WriteIOPS float64
}

// Bps returns summed read+write throughput demand.
func (d Demand) Bps() float64 { return d.ReadBps + d.WriteBps }

// IOPS returns summed read+write IOPS demand.
func (d Demand) IOPS() float64 { return d.ReadIOPS + d.WriteIOPS }

// Dimension names which cap triggered a throttle.
type Dimension uint8

// Throttle dimensions.
const (
	ByTput Dimension = iota
	ByIOPS
)

func (d Dimension) String() string {
	if d == ByTput {
		return "throughput"
	}
	return "iops"
}

// Event is one (vd, second) throttle occurrence.
type Event struct {
	VD  int // index within the group
	Sec int
	Dim Dimension
	// RAR is the group's Resource Available Rate (Equation 1) in the
	// triggering dimension at the time of the throttle.
	RAR float64
	// WrRatio is the normalized write-to-read ratio (Equation 2) of the
	// VD's demand in the triggering dimension.
	WrRatio float64
	// Load is the VD's offered load in the triggering dimension, and AR the
	// group's absolute available resource there — the inputs of the
	// reduction-rate analysis (Equation 3).
	Load float64
	AR   float64
}

// Result summarizes a group simulation.
type Result struct {
	// ThrottledSecs[vd] counts seconds during which vd had queued IO.
	ThrottledSecs []int
	// TotalThrottledSecs sums ThrottledSecs.
	TotalThrottledSecs int
	// Events lists every throttle occurrence with its RAR and wr_ratio.
	Events []Event
	// DeliveredBps[vd] is the mean delivered throughput.
	DeliveredBps []float64
	// QueueDelaySec[vd][t] estimates how long an IO arriving at second t
	// would wait in the hypervisor queue: the end-of-second backlog divided
	// by the effective cap (in the dimension draining slowest). Zero when
	// unthrottled. The end-to-end simulator folds this into compute-node
	// latency.
	QueueDelaySec [][]float64
}

// Scratch holds the working buffers of a throttle replay so repeated
// simulations (the engine replays one per virtual disk per run) allocate
// nothing in steady state. The zero value is ready to use. A Scratch is not
// safe for concurrent use, and the Result returned by its methods aliases
// its buffers: it is valid only until the next call on the same Scratch.
type Scratch struct {
	throttledSecs []int
	deliveredBps  []float64
	queueDelay    [][]float64
	queueDelayBuf []float64
	events        []Event
	backlogB      []float64
	backlogOps    []float64
	eff           []Caps
	lent          []bool
}

// Simulate replays a group of VDs (a multi-VD VM, or a tenant's multi-VM
// node with caps flattened per disk) against the hard-threshold throttle.
// demand is indexed [vd][sec]; caps is indexed [vd]. The throttle is a
// queueing model: demand beyond the cap backlogs in the hypervisor and
// drains in later seconds, so a burst's throttle outlasts the burst itself
// (the latency-spike behaviour Calcspar reported on AWS EBS). It allocates
// nothing in steady state; the Result is valid until the next call on this
// Scratch.
func (sc *Scratch) Simulate(caps []Caps, demand [][]Demand) Result {
	res, _ := sc.Replay(caps, demand, Replay{})
	return res
}

// Replay names what one throttle replay applies on top of the hard caps.
// The zero value is the plain replay Simulate runs.
type Replay struct {
	// Lend enables Appendix B limited lending within the group. Its Rate
	// must be in (0,1); a PeriodSec <= 0 means 60.
	Lend *Lending
	// CapsAt is an externally planned cap schedule: before each second the
	// effective caps are reset to nominal and CapsAt may adjust them in place
	// (the control plane's per-epoch lending grants arrive this way). The
	// schedule is trusted — fleet-wide grant conservation is an
	// invariant-package law, since a single scheduled group no longer sees
	// its lenders — and already encodes any grants, so it excludes Lend.
	CapsAt func(t int, eff []Caps)
	// Audit asserts the grant-budget laws every second: effective caps are
	// non-negative and sum to no more than the nominal caps (lending only
	// redistributes; revocation must never break conservation), delivered
	// traffic never exceeds the effective cap, backlogs stay within the
	// finite queue bound. Under CapsAt the budget law is checked against the
	// scheduled caps (a scheduled group may legitimately exceed its nominal
	// sum while borrowing fleet-wide).
	Audit bool
}

// intsFor returns a zeroed length-n int slice, reusing buf's capacity.
func intsFor(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// f64For returns a zeroed length-n float64 slice, reusing buf's capacity.
func f64For(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// boolFor returns a zeroed length-n bool slice, reusing buf's capacity.
func boolFor(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// auditLog accumulates conservation violations, capped so a systemic bug
// cannot flood memory.
type auditLog struct {
	msgs    []string
	dropped int
}

// maxAuditMsgs bounds how many violations one audit retains.
const maxAuditMsgs = 32

func (a *auditLog) addf(format string, args ...any) {
	if len(a.msgs) >= maxAuditMsgs {
		a.dropped++
		return
	}
	a.msgs = append(a.msgs, fmt.Sprintf(format, args...))
}

// auditTol is the relative tolerance of the audit comparisons: backlog
// arithmetic accumulates float residue, so exact comparisons would flag
// rounding, not bugs.
const auditTol = 1e-6

// checkSecond asserts the per-second grant-budget laws after lending.
func (a *auditLog) checkSecond(t int, eff, nominal []Caps) {
	var effT, effI, nomT, nomI float64
	for i := range eff {
		if eff[i].Tput < 0 || eff[i].IOPS < 0 {
			a.addf("sec %d: vd %d effective cap negative (%v tput, %v iops)", t, i, eff[i].Tput, eff[i].IOPS)
		}
		effT += eff[i].Tput
		effI += eff[i].IOPS
		nomT += nominal[i].Tput
		nomI += nominal[i].IOPS
	}
	if effT > nomT*(1+auditTol)+auditTol {
		a.addf("sec %d: summed effective tput cap %v exceeds nominal budget %v", t, effT, nomT)
	}
	if effI > nomI*(1+auditTol)+auditTol {
		a.addf("sec %d: summed effective iops cap %v exceeds nominal budget %v", t, effI, nomI)
	}
}

// checkDelivery asserts per-VD delivery and queue laws for one second.
func (a *auditLog) checkDelivery(t, vd int, deliveredB, deliveredOps float64, eff Caps, backlogB, backlogOps, delay float64) {
	if deliveredB > eff.Tput*(1+auditTol)+auditTol {
		a.addf("sec %d: vd %d delivered %v B/s over effective cap %v", t, vd, deliveredB, eff.Tput)
	}
	if deliveredOps > eff.IOPS*(1+auditTol)+auditTol {
		a.addf("sec %d: vd %d delivered %v IOPS over effective cap %v", t, vd, deliveredOps, eff.IOPS)
	}
	if backlogB < 0 || backlogOps < 0 {
		a.addf("sec %d: vd %d negative backlog (%v B, %v ops)", t, vd, backlogB, backlogOps)
	}
	if lim := maxQueueSecs * eff.Tput; backlogB > lim*(1+auditTol)+auditTol {
		a.addf("sec %d: vd %d byte backlog %v over queue bound %v", t, vd, backlogB, lim)
	}
	if lim := maxQueueSecs * eff.IOPS; backlogOps > lim*(1+auditTol)+auditTol {
		a.addf("sec %d: vd %d ops backlog %v over queue bound %v", t, vd, backlogOps, lim)
	}
	if delay < 0 || delay > maxQueueSecs*(1+auditTol)+auditTol {
		a.addf("sec %d: vd %d queue delay %v outside [0, %v]", t, vd, delay, maxQueueSecs)
	}
}

// Replay replays the group as r describes. The second result lists the
// violations r.Audit found: empty when every law held, and always without
// it. The Result aliases sc's buffers.
func (sc *Scratch) Replay(caps []Caps, demand [][]Demand, r Replay) (Result, []string) {
	capsAt := r.CapsAt
	if capsAt != nil && r.Lend != nil {
		panic("throttle: scheduled caps cannot combine with lending")
	}
	var lend *Lending
	if r.Lend != nil {
		l := *r.Lend
		if l.Rate <= 0 || l.Rate >= 1 {
			panic("throttle: lending rate must be in (0,1)")
		}
		if l.PeriodSec <= 0 {
			l.PeriodSec = 60
		}
		lend = &l
	}
	var log auditLog
	var audit *auditLog
	if r.Audit {
		audit = &log
	}
	n := len(caps)
	if len(demand) != n {
		panic("throttle: demand rows must match caps")
	}
	var dur int
	if n > 0 {
		dur = len(demand[0])
	}
	sc.throttledSecs = intsFor(sc.throttledSecs, n)
	sc.deliveredBps = f64For(sc.deliveredBps, n)
	// Queue-delay rows are fully overwritten (every (vd, t) cell is assigned
	// each second), so the flat backing buffer is reused without zeroing.
	if cap(sc.queueDelay) < n {
		sc.queueDelay = make([][]float64, n)
	}
	sc.queueDelay = sc.queueDelay[:n]
	if cap(sc.queueDelayBuf) < n*dur {
		sc.queueDelayBuf = make([]float64, n*dur)
	}
	flat := sc.queueDelayBuf[:n*dur]
	for vd := range sc.queueDelay {
		sc.queueDelay[vd] = flat[vd*dur : (vd+1)*dur : (vd+1)*dur]
	}
	res := Result{
		ThrottledSecs: sc.throttledSecs,
		DeliveredBps:  sc.deliveredBps,
		QueueDelaySec: sc.queueDelay,
		Events:        sc.events[:0],
	}
	backlogB := f64For(sc.backlogB, n)
	backlogOps := f64For(sc.backlogOps, n)
	sc.backlogB, sc.backlogOps = backlogB, backlogOps

	// Effective caps, mutated by lending within a period and reset at period
	// boundaries.
	if cap(sc.eff) < n {
		sc.eff = make([]Caps, n)
	}
	eff := sc.eff[:n]
	copy(eff, caps)
	sc.eff = eff
	lentThisPeriod := boolFor(sc.lent, n)
	sc.lent = lentThisPeriod

	var sumCapT, sumCapI float64
	for _, c := range caps {
		sumCapT += c.Tput
		sumCapI += c.IOPS
	}

	for t := 0; t < dur; t++ {
		if capsAt != nil {
			copy(eff, caps)
			capsAt(t, eff)
		}
		if lend != nil && t%lend.PeriodSec == 0 {
			copy(eff, caps)
			for i := range lentThisPeriod {
				lentThisPeriod[i] = false
			}
		}
		// Group-level totals for RAR (Equation 1) use nominal caps and the
		// group's offered load this second.
		var vmT, vmI float64
		for vd := 0; vd < n; vd++ {
			vmT += demand[vd][t].Bps()
			vmI += demand[vd][t].IOPS()
		}

		for vd := 0; vd < n; vd++ {
			d := demand[vd][t]
			offerB := d.Bps() + backlogB[vd]
			offerOps := d.IOPS() + backlogOps[vd]

			overT := overCap(offerB, eff[vd].Tput)
			overI := overCap(offerOps, eff[vd].IOPS)
			if (overT || overI) && lend != nil && !lentThisPeriod[vd] {
				// Appendix B: on the first throttle of this VD in the
				// period, it borrows p x AR(t) from unthrottled peers.
				lentThisPeriod[vd] = true
				applyLending(lend, eff, caps, demand, t, vd)
				overT = overCap(offerB, eff[vd].Tput)
				overI = overCap(offerOps, eff[vd].IOPS)
			}

			if overT || overI {
				res.ThrottledSecs[vd]++
				res.TotalThrottledSecs++
				dim := ByTput
				if overI && !overT {
					dim = ByIOPS
				}
				ev := Event{VD: vd, Sec: t, Dim: dim}
				// Load is the *delivered* traffic (clipped at the cap), as
				// the paper's metric data would record it; Equation 3's
				// VD(t) is measured, post-throttle throughput.
				if dim == ByTput {
					ev.RAR = rar(sumCapT, vmT)
					ev.WrRatio = stats.WrRatio(d.WriteBps, d.ReadBps)
					ev.Load = math.Min(offerB, eff[vd].Tput)
					ev.AR = math.Max(0, sumCapT-vmT)
				} else {
					ev.RAR = rar(sumCapI, vmI)
					ev.WrRatio = stats.WrRatio(d.WriteIOPS, d.ReadIOPS)
					ev.Load = math.Min(offerOps, eff[vd].IOPS)
					ev.AR = math.Max(0, sumCapI-vmI)
				}
				res.Events = append(res.Events, ev)
			}

			deliveredB := math.Min(offerB, eff[vd].Tput)
			deliveredOps := math.Min(offerOps, eff[vd].IOPS)
			// The binding constraint is whichever dimension clips harder.
			fracB, fracOps := 1.0, 1.0
			if offerB > 0 {
				fracB = deliveredB / offerB
			}
			if offerOps > 0 {
				fracOps = deliveredOps / offerOps
			}
			frac := math.Min(fracB, fracOps)
			backlogB[vd] = offerB * (1 - frac)
			backlogOps[vd] = offerOps * (1 - frac)
			// Hypervisor queues are finite: at most maxQueueSecs worth of
			// drain can be buffered; beyond that the guest blocks and the
			// excess demand never materializes as queued IO.
			if lim := maxQueueSecs * eff[vd].Tput; backlogB[vd] > lim {
				backlogB[vd] = lim
			}
			if lim := maxQueueSecs * eff[vd].IOPS; backlogOps[vd] > lim {
				backlogOps[vd] = lim
			}
			res.DeliveredBps[vd] += offerB * frac
			var delay float64
			if eff[vd].Tput > 0 {
				delay = backlogB[vd] / eff[vd].Tput
			}
			if eff[vd].IOPS > 0 {
				if d := backlogOps[vd] / eff[vd].IOPS; d > delay {
					delay = d
				}
			}
			res.QueueDelaySec[vd][t] = delay
			if audit != nil {
				audit.checkDelivery(t, vd, deliveredB, deliveredOps, eff[vd], backlogB[vd], backlogOps[vd], delay)
			}
		}
		if audit != nil {
			nominal := caps
			if capsAt != nil {
				// A scheduled group is one node of a fleet-wide lending plan;
				// its budget law is conservation against the schedule itself
				// (the fleet-level law lives in the invariant package).
				nominal = eff
			}
			audit.checkSecond(t, eff, nominal)
		}
	}
	if dur > 0 {
		for vd := range res.DeliveredBps {
			res.DeliveredBps[vd] /= float64(dur)
		}
	}
	if audit != nil {
		var sum int
		for _, s := range res.ThrottledSecs {
			sum += s
		}
		if sum != res.TotalThrottledSecs {
			audit.addf("throttled-seconds accounting drift: per-VD sum %d != total %d", sum, res.TotalThrottledSecs)
		}
		if audit.dropped > 0 {
			audit.addf("(%d further violations suppressed)", audit.dropped)
		}
	}
	sc.events = res.Events // retain grown capacity across scratch reuses
	return res, log.msgs
}

// maxQueueSecs bounds the hypervisor IO queue: the backlog can hold at most
// this many seconds of cap-rate drain (beyond that the guest's submission
// blocks, closing the loop).
const maxQueueSecs = 4.0

// overCap compares offered load against a cap with a relative tolerance so
// floating-point residue from backlog arithmetic cannot fabricate throttles.
func overCap(offer, cap float64) bool {
	return offer > cap*(1+1e-9)+1e-9
}

// rar computes Equation 1, clamped to [0,1]; an overloaded group reports 0.
func rar(cap, load float64) float64 {
	if cap <= 0 {
		return math.NaN()
	}
	r := (cap - load) / cap
	if r < 0 {
		return 0
	}
	return r
}
