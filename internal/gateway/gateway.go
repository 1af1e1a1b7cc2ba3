package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/throttle"
)

// Config shapes one gateway.
type Config struct {
	// MaxConcurrent bounds how many studies run at once (default 1).
	MaxConcurrent int
	// SubmitRate and SubmitBurst are the per-tenant token-bucket cap on
	// study starts: rate in grants/sec, burst the bank (default 1 when a
	// rate is set). Rate 0 means uncapped. An over-cap submission is
	// QUEUED behind the tenant's bucket, never dropped — the same
	// queue-don't-drop discipline internal/throttle applies to IOs.
	SubmitRate  float64
	SubmitBurst float64
	// MaxQueuedPerTenant is the admission bound: a submission arriving at
	// a tenant whose queue is already this deep is rejected (default 16).
	MaxQueuedPerTenant int
	// WeightOf sets per-tenant weighted-fair-queueing weights (default 1).
	// A weight-2 tenant drains its backlog twice as fast as a weight-1
	// tenant under contention.
	WeightOf map[string]float64
	// Now overrides the clock (tests pass testclock.Clock.Now). With a
	// fake clock the gateway never arms wall timers — after advancing the
	// clock, call Poke to re-run admission.
	Now func() time.Time
	// OnProgress, when non-nil, fires as a granted study progresses, once
	// per completed virtual disk. Calls come from run goroutines; keep it
	// cheap or fully synchronous (the e2e tests hang mid-run snapshot probes
	// here precisely because it is deterministic).
	OnProgress func(study uint64, done, total int)
}

// Grant is one scheduler decision: tenant, study, and when (seconds since
// the gateway started).
type Grant struct {
	Tenant string
	Study  uint64
	AtSec  float64
}

// Admission is one admission decision, in arrival order. Decision is
// "queued", "rejected", or "deduped".
type Admission struct {
	Tenant   string
	Study    uint64 `json:",omitempty"`
	Decision string
	AtSec    float64
}

type tenant struct {
	name   string
	weight float64
	bucket *throttle.TokenBucket // nil: no submission cap
	queue  []*job
	pass   float64 // WFQ virtual finish time
	ledger invariant.StudyLedger
}

type job struct {
	id     uint64
	tenant string
	spec   StudySpec // normalized

	// Mutable lifecycle state, guarded by Gateway.mu.
	state    uint8
	canceled bool
	errMsg   string
	cancel   context.CancelFunc
	ctx      context.Context

	// live serves snapshots while the study runs (nil before and after),
	// guarded by Gateway.mu. It only reads the state the run is writing.
	live *ebs.SnapshotSink

	vdsDone  atomic.Int64
	vdsTotal atomic.Int64

	// The final answers, stored under Gateway.mu when the run returns.
	result

	done chan struct{}
}

// result is what a finished run answers. The run computes it outside
// Gateway.mu — fingerprinting a large study takes milliseconds — and runJob
// only stores it.
type result struct {
	dsFP         string // invariant.Fingerprint of the dataset
	sketchFP     string // final Options.Stream fingerprint
	finalSketch  []byte
	finalSeq     uint64
	ctlFP        string // control decision-log fingerprint (controlled studies)
	ctlDecisions int
}

// Gateway is the always-on serving plane. It implements netblock.Handler:
// mount it with netblock.NewHandlerServer over any listener — TCP for real
// deployments, fabric.Loopback for in-process harnesses. All methods are
// safe for concurrent use.
type Gateway struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	closed  bool
	nextID  uint64
	tenants map[string]*tenant
	names   []string // sorted; deterministic WFQ tie-break order
	byID    map[uint64]*job
	results map[StudySpec]*job // completed studies by normalized spec
	grants  []Grant
	adms    []Admission
	running int
	vtime   float64
	timer   *time.Timer

	runWG sync.WaitGroup
}

// New builds a gateway. Close releases it.
func New(cfg Config) *Gateway {
	gw := &Gateway{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		byID:    make(map[uint64]*job),
		results: make(map[StudySpec]*job),
	}
	gw.start = gw.now()
	return gw
}

func (gw *Gateway) now() time.Time {
	if gw.cfg.Now != nil {
		return gw.cfg.Now()
	}
	return time.Now()
}

func (gw *Gateway) tenantLocked(name string, now time.Time) *tenant {
	tn := gw.tenants[name]
	if tn != nil {
		return tn
	}
	tn = &tenant{name: name, weight: 1}
	if w := gw.cfg.WeightOf[name]; w > 0 {
		tn.weight = w
	}
	if gw.cfg.SubmitRate > 0 {
		tn.bucket = throttle.NewTokenBucket(gw.cfg.SubmitRate, gw.cfg.burst(), now)
	}
	gw.tenants[name] = tn
	gw.names = append(gw.names, name)
	sort.Strings(gw.names)
	return tn
}

// Submit admits one study. The reply carries the study ID to poll; a
// rejection (tenant queue at its admission bound, malformed spec, gateway
// closed) is an error. Over-cap-rate submissions are NOT errors: they queue
// behind the tenant's token bucket and start when it refills.
func (gw *Gateway) Submit(tenantName string, spec StudySpec) (SubmitReply, error) {
	if err := checkName("tenant", tenantName, maxTenantLen); err != nil {
		return SubmitReply{}, fmt.Errorf("gateway: %w", err)
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return SubmitReply{}, err
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	// The clock is read under the lock everywhere a bucket refills or a grant
	// is stamped: a reading taken before a contended Lock can be older than
	// the refill another goroutine did meanwhile, and a grant stamped with it
	// looks (to CheckGrantPacing) like one the bucket could not have paid for.
	now := gw.now()
	if gw.closed {
		return SubmitReply{}, errors.New("gateway: closed")
	}
	at := now.Sub(gw.start).Seconds()
	tn := gw.tenantLocked(tenantName, now)
	if prev := gw.results[spec]; prev != nil {
		tn.ledger.Deduped++
		gw.adms = append(gw.adms, Admission{Tenant: tenantName, Study: prev.id, Decision: "deduped", AtSec: at})
		return SubmitReply{StudyID: prev.id, State: StateName(StateDone), Deduped: true}, nil
	}
	depth := gw.cfg.MaxQueuedPerTenant
	if depth <= 0 {
		depth = 16
	}
	if len(tn.queue) >= depth {
		tn.ledger.Rejected++
		gw.adms = append(gw.adms, Admission{Tenant: tenantName, Decision: "rejected", AtSec: at})
		return SubmitReply{}, fmt.Errorf("gateway: tenant %q queue full (%d queued)", tenantName, len(tn.queue))
	}
	gw.nextID++
	j := &job{
		id:     gw.nextID,
		tenant: tenantName,
		spec:   spec,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	gw.byID[j.id] = j
	if len(tn.queue) == 0 && tn.pass < gw.vtime {
		// A tenant re-entering the backlog starts at the current virtual
		// time: it cannot bank credit from its idle period.
		tn.pass = gw.vtime
	}
	tn.queue = append(tn.queue, j)
	tn.ledger.Submitted++
	tn.ledger.Queued++
	gw.adms = append(gw.adms, Admission{Tenant: tenantName, Study: j.id, Decision: "queued", AtSec: at})
	gw.scheduleLocked(now)
	return SubmitReply{StudyID: j.id, State: StateName(j.state)}, nil
}

// scheduleLocked grants run slots: while a slot is free, pick the
// lowest-virtual-time tenant (ties broken by name) whose queue is non-empty
// and whose token bucket has a grant banked, charge the bucket, and start
// the head study. Stride scheduling — each grant advances the tenant's
// virtual time by 1/weight — is what bounds any backlogged tenant's share
// to its weight within one grant.
func (gw *Gateway) scheduleLocked(now time.Time) {
	maxc := gw.cfg.MaxConcurrent
	if maxc <= 0 {
		maxc = 1
	}
	for gw.running < maxc && !gw.closed {
		var best *tenant
		for _, name := range gw.names {
			tn := gw.tenants[name]
			if len(tn.queue) == 0 {
				continue
			}
			if tn.bucket != nil && tn.bucket.Tokens(now) < 1 {
				continue
			}
			if best == nil || tn.pass < best.pass {
				best = tn
			}
		}
		if best == nil {
			break
		}
		if best.bucket != nil {
			best.bucket.Take(now)
		}
		j := best.queue[0]
		best.queue = best.queue[1:]
		gw.vtime = best.pass
		best.pass += 1 / best.weight
		at := now.Sub(gw.start).Seconds()
		gw.grants = append(gw.grants, Grant{Tenant: best.name, Study: j.id, AtSec: at})
		best.ledger.Queued--
		best.ledger.Granted++
		best.ledger.Running++
		j.state = StateRunning
		j.ctx, j.cancel = context.WithCancel(context.Background())
		gw.running++
		gw.runWG.Add(1)
		go gw.runJob(j)
	}
	gw.armTimerLocked(now)
}

// armTimerLocked schedules a wall-clock re-kick at the earliest token refill
// among gated backlogged tenants. Fake-clock gateways (cfg.Now set) never arm
// timers; tests drive re-admission with Poke.
func (gw *Gateway) armTimerLocked(now time.Time) {
	if gw.cfg.Now != nil || gw.closed {
		return
	}
	var earliest time.Time
	for _, tn := range gw.tenants {
		if len(tn.queue) == 0 || tn.bucket == nil || tn.bucket.Tokens(now) >= 1 {
			continue
		}
		na := tn.bucket.NextAt(now)
		if na.IsZero() {
			continue
		}
		if earliest.IsZero() || na.Before(earliest) {
			earliest = na
		}
	}
	if gw.timer != nil {
		gw.timer.Stop()
		gw.timer = nil
	}
	if earliest.IsZero() {
		return
	}
	d := earliest.Sub(now)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	gw.timer = time.AfterFunc(d, gw.Poke)
}

// Poke re-runs admission against the current clock. Call it after advancing
// a fake clock; real-clock gateways poke themselves via refill timers.
func (gw *Gateway) Poke() {
	gw.mu.Lock()
	now := gw.now()
	if !gw.closed {
		gw.scheduleLocked(now)
	}
	gw.mu.Unlock()
}

// runJob executes one granted study and settles its terminal state.
func (gw *Gateway) runJob(j *job) {
	defer gw.runWG.Done()
	res, err := gw.runLocal(j)
	gw.mu.Lock()
	now := gw.now()
	tn := gw.tenants[j.tenant]
	gw.running--
	tn.ledger.Running--
	j.live = nil
	j.result = res
	switch {
	case j.canceled:
		j.state = StateCanceled
		tn.ledger.CanceledRunning++
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		tn.ledger.Failed++
	default:
		j.state = StateDone
		gw.results[j.spec] = j
		tn.ledger.Completed++
	}
	j.cancel()
	gw.scheduleLocked(now)
	gw.mu.Unlock()
	close(j.done)
}

// runLocal executes the study in-process: the spec's RunSpec with a streaming
// sketch destination plus a SnapshotSink through which Snapshot reads it
// mid-run. A controlled study's observe pass only generates and counts events
// (ebs.Sim.Observe reads no stream, snapshot or progress option), so the sink
// and the progress counters see only the actuated pass the tenant's answer
// comes from.
func (gw *Gateway) runLocal(j *job) (result, error) {
	stream := sketch.NewSet(sketch.Config{})
	sink := &ebs.SnapshotSink{}
	gw.mu.Lock()
	j.live = sink
	gw.mu.Unlock()
	spec := j.spec.RunSpec()
	spec.Opts.Stream = stream
	spec.Opts.Snapshots = sink
	spec.Opts.Progress = func(done, total int) {
		j.vdsTotal.Store(int64(total))
		j.vdsDone.Store(int64(done))
		if gw.cfg.OnProgress != nil {
			gw.cfg.OnProgress(j.id, done, total)
		}
	}
	ds, plan, err := spec.Run(j.ctx)
	if err != nil {
		return result{}, err
	}
	res := result{dsFP: invariant.Fingerprint(ds), sketchFP: stream.Fingerprint()}
	res.finalSketch, _, res.finalSeq = sink.Snapshot()
	if plan != nil {
		res.ctlFP, res.ctlDecisions = plan.LogFingerprint(), len(plan.Decisions)
	}
	return res, nil
}

// Status reports one study's lifecycle view.
func (gw *Gateway) Status(id uint64) (StatusReply, error) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	j := gw.byID[id]
	if j == nil {
		return StatusReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	return StatusReply{
		StudyID:   j.id,
		Tenant:    j.tenant,
		State:     StateName(j.state),
		VDsDone:   int(j.vdsDone.Load()),
		VDsTotal:  int(j.vdsTotal.Load()),
		DatasetFP: j.dsFP,
		SketchFP:  j.sketchFP,
		Error:     j.errMsg,

		ControlLogFP:     j.ctlFP,
		ControlDecisions: j.ctlDecisions,
	}, nil
}

// Snapshot serves the study's current streamed sketch state: a merge of the
// run's live per-shard sets, read in place while the run keeps writing, or
// the stored final state once the study completes.
func (gw *Gateway) Snapshot(id uint64) (SnapshotReply, error) {
	gw.mu.Lock()
	j := gw.byID[id]
	if j == nil {
		gw.mu.Unlock()
		return SnapshotReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	rep := SnapshotReply{
		StudyID:  j.id,
		State:    j.state,
		VDsDone:  uint32(j.vdsDone.Load()),
		VDsTotal: uint32(j.vdsTotal.Load()),
	}
	if j.live == nil {
		rep.Sketch = j.finalSketch
		rep.SketchFP = j.sketchFP
		rep.Seq = j.finalSeq
		gw.mu.Unlock()
		return rep, nil
	}
	live := j.live
	gw.mu.Unlock()

	if set, vds := live.SketchSnapshot(); set != nil {
		rep.Sketch = set.EncodeBinary()
		rep.SketchFP = set.Fingerprint()
		rep.Seq = uint64(vds)
		rep.VDsDone = uint32(vds)
	}
	return rep, nil
}

// Cancel cancels one study: a queued study leaves its tenant queue
// immediately, a running study has its context canceled and settles as
// canceled when the run returns. Terminal studies are left untouched.
func (gw *Gateway) Cancel(id uint64) (CancelReply, error) {
	gw.mu.Lock()
	j := gw.byID[id]
	if j == nil {
		gw.mu.Unlock()
		return CancelReply{}, fmt.Errorf("gateway: no study %d", id)
	}
	var cancel context.CancelFunc
	switch j.state {
	case StateQueued:
		tn := gw.tenants[j.tenant]
		for i, q := range tn.queue {
			if q == j {
				tn.queue = append(tn.queue[:i], tn.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		tn.ledger.Queued--
		tn.ledger.CanceledQueued++
		close(j.done)
	case StateRunning:
		if !j.canceled {
			j.canceled = true
			cancel = j.cancel
		}
	}
	state := StateName(j.state)
	gw.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return CancelReply{State: state}, nil
}

// Stats reports one tenant's ledger and token balance.
func (gw *Gateway) Stats(tenantName string) (TenantStats, error) {
	gw.mu.Lock()
	now := gw.now()
	defer gw.mu.Unlock()
	tn := gw.tenants[tenantName]
	if tn == nil {
		return TenantStats{}, fmt.Errorf("gateway: no tenant %q", tenantName)
	}
	st := TenantStats{Tenant: tenantName, StudyLedger: tn.ledger}
	if tn.bucket != nil {
		st.Tokens = tn.bucket.Tokens(now)
	}
	return st, nil
}

// burst is the tenants' token-bucket bank: SubmitBurst, or 1 when it is unset.
func (c *Config) burst() float64 {
	if c.SubmitBurst > 0 {
		return c.SubmitBurst
	}
	return 1
}

// Ledger snapshots the gateway-wide study accounting (the
// invariant.CheckGatewayAccounting subject): the sum of the tenant ledgers.
func (gw *Gateway) Ledger() invariant.StudyLedger {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.ledgerLocked()
}

func (gw *Gateway) ledgerLocked() invariant.StudyLedger {
	var sum invariant.StudyLedger
	for _, tn := range gw.tenants {
		l := &tn.ledger
		sum.Submitted += l.Submitted
		sum.Rejected += l.Rejected
		sum.Deduped += l.Deduped
		sum.Granted += l.Granted
		sum.Completed += l.Completed
		sum.Failed += l.Failed
		sum.CanceledQueued += l.CanceledQueued
		sum.CanceledRunning += l.CanceledRunning
		sum.Queued += l.Queued
		sum.Running += l.Running
	}
	return sum
}

// CheckLaws holds the gateway to its serving laws: the study ledger, summed
// and per tenant, to invariant.CheckGatewayAccounting (with drained, nothing
// may be queued or running), and, when SubmitRate caps the tenants, each
// tenant's grant log to invariant.CheckGrantPacing. It returns nil when every
// law holds.
func (gw *Gateway) CheckLaws(drained bool) error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	var rep invariant.Report
	sum := gw.ledgerLocked()
	invariant.CheckGatewayAccounting(&rep, "all tenants", &sum, drained)
	for _, name := range gw.names {
		invariant.CheckGatewayAccounting(&rep, "tenant "+name, &gw.tenants[name].ledger, drained)
	}
	if gw.cfg.SubmitRate > 0 {
		grantsAt := make(map[string][]float64, len(gw.tenants))
		for _, g := range gw.grants {
			grantsAt[g.Tenant] = append(grantsAt[g.Tenant], g.AtSec)
		}
		for _, name := range gw.names {
			invariant.CheckGrantPacing(&rep, name, gw.cfg.SubmitRate, gw.cfg.burst(), grantsAt[name])
		}
	}
	return rep.Err()
}

// Grants snapshots the scheduler's grant log.
func (gw *Gateway) Grants() []Grant {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]Grant(nil), gw.grants...)
}

// Admissions snapshots the admission log.
func (gw *Gateway) Admissions() []Admission {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]Admission(nil), gw.adms...)
}

// Close shuts the gateway down: new submissions are refused, queued studies
// are canceled, running studies have their contexts canceled, and Close
// returns once every run goroutine has settled.
func (gw *Gateway) Close() {
	gw.mu.Lock()
	if gw.closed {
		gw.mu.Unlock()
		gw.runWG.Wait()
		return
	}
	gw.closed = true
	if gw.timer != nil {
		gw.timer.Stop()
		gw.timer = nil
	}
	var cancels []context.CancelFunc
	for _, tn := range gw.tenants {
		for _, j := range tn.queue {
			j.state = StateCanceled
			tn.ledger.Queued--
			tn.ledger.CanceledQueued++
			close(j.done)
		}
		tn.queue = nil
	}
	for _, j := range gw.byID {
		if j.state == StateRunning && !j.canceled {
			j.canceled = true
			cancels = append(cancels, j.cancel)
		}
	}
	gw.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	gw.runWG.Wait()
}

// Handle implements netblock.Handler for the five gateway ops.
func (gw *Gateway) Handle(req *netblock.Request) *netblock.Response {
	resp := &netblock.Response{ID: req.ID, Status: netblock.StatusOK}
	fail := func(err error) *netblock.Response {
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch req.Op {
	case netblock.OpSubmitStudy:
		sub, err := DecodeSubmit(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Submit(sub.Tenant, sub.Spec)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpStudyStatus:
		id, err := DecodeStudyID(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Status(id)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpStreamSnapshot:
		id, err := DecodeStudyID(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Snapshot(id)
		if err != nil {
			return fail(err)
		}
		resp.Payload = EncodeSnapshotReply(reply)
	case netblock.OpCancelStudy:
		id, err := DecodeStudyID(req.Payload)
		if err != nil {
			return fail(err)
		}
		reply, err := gw.Cancel(id)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	case netblock.OpTenantStats:
		var m StatsRequest
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		reply, err := gw.Stats(m.Tenant)
		if err != nil {
			return fail(err)
		}
		resp.Payload = mustJSON(reply)
	default:
		return fail(fmt.Errorf("gateway: op %s is not a gateway request", req.Op))
	}
	return resp
}
