package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/fabric"
	"ebslab/internal/gateway"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// Gateway load generator. Closed loop: each client connection submits its
// next study only after the previous one reached a terminal state.
const (
	gwClients = 2
	// gwPoll is the client's status poll interval. It belongs to the load
	// generator, not the gateway: 1 ms, because 25 ms would quantise every
	// latency to the poll and a run that sleeps between polls times the
	// sleep, not the program.
	gwPoll         = time.Millisecond
	gwRepeatPct    = 15 // share of submissions that repeat an earlier spec
	gwPerPass      = 50 // submissions per client per pass
	gwWarmStudies  = 8  // per set-up, each verified against a direct run
	gwPinPrefix    = 6  // pool specs per client covered by the pinned digest
	gwStudyLimit   = time.Minute
	gwMinBusyRatio = 0.5 // cpu_ms_per_study ÷ study_p50_ms must exceed this
)

var gwConfig = gateway.Config{MaxConcurrent: 2, SubmitRate: 0, MaxQueuedPerTenant: 64}

// gwSubmission is one entry of a client's seeded mix.
type gwSubmission struct {
	spec     gateway.StudySpec
	pool     int // index of the spec in the client's fixed pool
	repeatOf int // index of the earlier submission this one repeats, or -1
}

// gwPoolSpec is entry k of client's fixed pool of distinct studies: every
// spec on its own fleet seed, 2/3 default size (4 nodes, 8 s), 1/3 larger
// (8 nodes, 16 s). Study cost is itself skewed — a fleet's traffic is
// heavy-tailed — so the pool is fixed and -seed only orders it: ten seeds
// must be ten runs of the same work, not ten different amounts of it.
// lane separates the warm-up's pool from the mix's.
func gwPoolSpec(client, lane, k int) gateway.StudySpec {
	spec := gateway.StudySpec{Seed: studyFleetSeed*1_000_000 + int64(client)*100_000 + int64(lane)*10_000 + int64(k) + 1}
	if k%3 == 2 {
		spec.Nodes, spec.DurationSec = 8, 16
	}
	return spec
}

// gatewayMix draws client's n submissions from seed: the first n-r pool
// specs in a seeded order, with r = 15% deliberate repeats of one of the
// client's own earlier submissions at seeded positions — by then completed
// (the loop is closed), so every repeat is a dedup hit and the counts
// repeat exactly.
func gatewayMix(seed int64, client, lane, n int) []gwSubmission {
	rng := splitmix(uint64(seed)*0x9e3779b9 + uint64(client)*7919 + uint64(lane)*104729)
	repeats := n * gwRepeatPct / 100
	if repeats > n-1 {
		repeats = n - 1
	}
	shuffled := func(m int) []int {
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		for i := m - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm
	}
	order := shuffled(n - repeats)
	isRepeat := make([]bool, n)
	for _, pos := range shuffled(n - 1)[:repeats] {
		isRepeat[pos+1] = true // never the first submission
	}
	mix := make([]gwSubmission, n)
	next := 0
	for i := range mix {
		if isRepeat[i] {
			j := int(rng.next() % uint64(i))
			if mix[j].repeatOf >= 0 {
				j = mix[j].repeatOf
			}
			mix[i] = gwSubmission{spec: mix[j].spec, pool: mix[j].pool, repeatOf: j}
			continue
		}
		k := order[next]
		next++
		mix[i] = gwSubmission{spec: gwPoolSpec(client, lane, k), pool: k, repeatOf: -1}
	}
	return mix
}

// gwStand is a stood-up gateway: the service, its netblock server on an
// in-process loopback listener, and one connected client per tenant.
type gwStand struct {
	gw      *gateway.Gateway
	srv     *netblock.Server
	lb      *fabric.Loopback
	served  chan struct{}
	clients []*gateway.Client
	start   time.Time // the gateway's clock origin (Grant/Admission AtSec)
}

func standUpGateway() (*gwStand, error) {
	s := &gwStand{start: time.Now(), lb: fabric.NewLoopback(), served: make(chan struct{})}
	s.gw = gateway.New(gwConfig)
	s.srv = netblock.NewHandlerServer(s.gw)
	go func() {
		defer close(s.served)
		s.srv.Serve(s.lb) //nolint:errcheck — ends with net.ErrClosed at close
	}()
	for c := 0; c < gwClients; c++ {
		conn, err := s.lb.Dial()
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, gateway.NewClient(conn))
	}
	return s, nil
}

func (s *gwStand) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.srv.Close()
	s.lb.Close()
	<-s.served
	s.gw.Close()
}

func tenantName(client int) string { return fmt.Sprintf("tenant-%d", client) }

// gwResult is one submission's outcome as its client saw it.
type gwResult struct {
	id      uint64
	deduped bool
	fp      string
	wallNS  int64
	polls   int
	doneAt  time.Time
	err     error
}

// submitAndWait is the closed loop's body: Submit, then poll Status every
// gwPoll until the study is terminal.
func submitAndWait(rec *recorder, study int, cl *gateway.Client, tenant string, spec gateway.StudySpec) gwResult {
	root := rec.start("study", 0, study)
	defer rec.end(root)
	t0 := time.Now()
	sp := rec.start("gateway.Submit", root, study)
	rep, err := cl.Submit(tenant, spec)
	rec.end(sp)
	if err != nil {
		return gwResult{err: fmt.Errorf("submit: %w", err), wallNS: time.Since(t0).Nanoseconds()}
	}
	res := gwResult{id: rep.StudyID, deduped: rep.Deduped}
	if !rep.Deduped {
		time.Sleep(gwPoll)
	}
	for {
		sp = rec.start("gateway.Status", root, study)
		st, err := cl.Status(rep.StudyID)
		rec.end(sp)
		res.polls++
		now := time.Now()
		switch {
		case err != nil:
			res.err = fmt.Errorf("status: %w", err)
		case st.State == gateway.StateName(gateway.StateDone):
			res.fp = st.DatasetFP
			if res.fp == "" {
				res.err = fmt.Errorf("study %d done without a fingerprint", rep.StudyID)
			}
		case st.State == gateway.StateName(gateway.StateFailed), st.State == gateway.StateName(gateway.StateCanceled):
			res.err = fmt.Errorf("study %d %s: %s", rep.StudyID, st.State, st.Error)
		case now.Sub(t0) > gwStudyLimit:
			res.err = fmt.Errorf("study %d still %s after %v", rep.StudyID, st.State, gwStudyLimit)
		default:
			time.Sleep(gwPoll)
			continue
		}
		res.doneAt = now
		res.wallNS = now.Sub(t0).Nanoseconds()
		return res
	}
}

// directFingerprint runs spec single-process, under Check, the way the
// gateway's own tests do: the reference a served study must equal.
func directFingerprint(spec gateway.StudySpec) (string, error) {
	fleet, err := workload.Generate(spec.FleetConfig())
	if err != nil {
		return "", err
	}
	opts := spec.RunOptions()
	opts.Check = true
	opts.Workers = engineWorkers()
	ds, err := ebs.New(fleet).Run(context.Background(), opts)
	if err != nil {
		return "", err
	}
	return invariant.Fingerprint(ds), nil
}

// setUpGateway is one complete gateway set-up: draw the mixes, stand the
// service up, and warm it with studies that are each verified against a
// direct single-process Check run of the same spec.
func setUpGateway(cfg runConfig, perClient int) (*gwStand, [][]gwSubmission, error) {
	mixes := make([][]gwSubmission, gwClients)
	for c := range mixes {
		mixes[c] = gatewayMix(cfg.Seed, c, 0, perClient)
	}
	s, err := standUpGateway()
	if err != nil {
		return nil, nil, err
	}
	warm := gatewayMix(cfg.Seed, 0, 9, gwWarmStudies)
	for i, sub := range warm {
		want, err := directFingerprint(sub.spec)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up %d direct run: %w", i, err)
		}
		res := submitAndWait(nil, 0, s.clients[i%gwClients], tenantName(i%gwClients), sub.spec)
		if res.err == nil && res.fp != want {
			res.err = fmt.Errorf("served fingerprint %s, single-process %s", res.fp, want)
		}
		if res.err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up %d: %w", i, res.err)
		}
	}
	return s, mixes, nil
}

// gatewayPhase is the gateway's untraced timed phase plus what only it can
// report.
type gatewayPhase struct {
	phase
	results  [][]gwResult // per client: pass 0's submissions, then pass 1's, ...
	passMS   [][]float64  // per pass, every submission's wall time
	ledger   invariant.StudyLedger
	retained float64 // live-heap growth across the phase, MiB
}

// runGatewayPasses drives the clients' mixes through the stood-up gateway
// once per pass, firstPass numbering the first. Every pass submits the same
// specs, so passes are units of identical simulated work; what differs is
// the shard hint — ignored by in-process execution, part of the content
// address — so a later pass is never answered from an earlier pass's
// results, only the mix's own deliberate repeats are. The heap is never
// collected by force between passes: the service is always on.
func runGatewayPasses(cfg runConfig, rec *recorder, s *gwStand, mixes [][]gwSubmission, probe *hostProbe, firstPass, passes int) *gatewayPhase {
	perPass := len(mixes[0])
	gp := &gatewayPhase{results: make([][]gwResult, gwClients)}
	heap0 := liveHeapMiB()
	led0 := s.gw.Ledger()
	mem0 := readMem()
	for pass := 0; pass < passes; pass++ {
		probe.sample()
		var wg sync.WaitGroup
		results := make([][]gwResult, gwClients)
		c0, t0 := cpuNS(), time.Now()
		for c := 0; c < gwClients; c++ {
			results[c] = make([]gwResult, perPass)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, sub := range mixes[c] {
					spec := sub.spec
					spec.Shards = firstPass + pass + 1
					results[c][i] = submitAndWait(rec, (pass*gwClients+c)*perPass+i+1, s.clients[c], tenantName(c), spec)
				}
			}()
		}
		wg.Wait()
		gp.units = append(gp.units, unit{wallNS: time.Since(t0).Nanoseconds(), cpuNS: cpuNS() - c0, studies: gwClients * perPass})
		var walls []float64
		for c := 0; c < gwClients; c++ {
			for _, r := range results[c] {
				walls = append(walls, float64(r.wallNS)/1e6)
			}
			gp.results[c] = append(gp.results[c], results[c]...)
		}
		gp.passMS = append(gp.passMS, walls)
	}
	gp.mem = readMem().since(mem0)
	probe.sample()
	gp.hostSpeed = probe.speed()
	probe.release()
	led1 := s.gw.Ledger()
	gp.ledger = invariant.StudyLedger{
		Submitted: led1.Submitted - led0.Submitted,
		Deduped:   led1.Deduped - led0.Deduped,
		Rejected:  led1.Rejected - led0.Rejected,
	}
	gp.heapMiB = liveHeapMiB()
	gp.retained = gp.heapMiB - heap0

	// Outside the clock: verify every study and count the IOs each pass
	// simulated. A study's IO count is the exact total its final sketch
	// state carries; a dedup hit simulated nothing.
	for c := 0; c < gwClients; c++ {
		for i := range gp.results[c] {
			res := &gp.results[c][i]
			gp.attempted++
			if res.err == nil {
				// Pass 0 ran the same study at the same position: every
				// pass must serve the same fingerprint.
				if first := gp.results[c][i%perPass]; res.fp != first.fp {
					res.err = fmt.Errorf("fingerprint %s, pass 0 served %s for the same study", res.fp, first.fp)
				}
			}
			if res.err == nil {
				if j := mixes[c][i%perPass].repeatOf; j >= 0 {
					if !res.deduped || res.fp != gp.results[c][j].fp {
						res.err = fmt.Errorf("repeat of submission %d: deduped=%v, fingerprint %s vs %s", j, res.deduped, res.fp, gp.results[c][j].fp)
					}
				} else if res.deduped {
					res.err = fmt.Errorf("a new spec was answered from the result cache")
				}
			}
			if res.err == nil && !res.deduped {
				n, err := studyIOs(s.gw, res.id)
				if err != nil {
					res.err = err
				}
				gp.units[i/perPass].ios += n
			}
			if res.err != nil {
				gp.failed++
				cfg.logf("client %d submission %d FAILED: %v", c, i, res.err)
			}
		}
	}
	// A pass holds studies of different sizes, so study_p50_ms takes every
	// submission at its fastest over the passes before taking the median:
	// the same "least disturbed" reading as the quiet quarter, per submission.
	gp.studyMS = append([]float64(nil), gp.passMS[0]...)
	for _, walls := range gp.passMS[1:] {
		for i, v := range walls {
			if v < gp.studyMS[i] {
				gp.studyMS[i] = v
			}
		}
	}
	cfg.logf("host speed %.3f of the reference; passes as measured:", gp.hostSpeed)
	for pass, u := range gp.units {
		cfg.logf("pass %d: %d studies, p50 %.2f ms, %.0f ios/s, %.1f studies/s", pass, u.studies, median(gp.passMS[pass]), 1e9/u.nsPerIO(), float64(u.studies)/(float64(u.wallNS)/1e9))
	}
	return gp
}

// studyIOs reads a finished study's simulated IO count from its final
// sketch state.
func studyIOs(gw *gateway.Gateway, id uint64) (int64, error) {
	snap, err := gw.Snapshot(id)
	if err != nil {
		return 0, err
	}
	set, err := sketch.DecodeSet(snap.Sketch)
	if err != nil {
		return 0, fmt.Errorf("study %d final sketch: %w", id, err)
	}
	return int64(set.Totals().IOs), nil
}

// prefixDigest hashes the fingerprints the first gwPinPrefix specs of each
// client's pool were served with, in pool order: the gateway workload's
// pinned identity. ok is false when the run was too short to cover them.
func prefixDigest(mixes [][]gwSubmission, results [][]gwResult) (string, bool) {
	h := sha256.New()
	for c, mix := range mixes {
		fps := make([]string, gwPinPrefix)
		for i, sub := range mix {
			if sub.pool < gwPinPrefix {
				fps[sub.pool] = results[c][i].fp
			}
		}
		for _, fp := range fps {
			if fp == "" {
				return "", false
			}
			fmt.Fprintf(h, "%s\n", fp)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// checkBusy fails a run that measured its own sleep: PR 12's gateway run
// burned 35 ms of CPU in 334 ms of wall because a 25 ms poll timer dominated.
func checkBusy(cpuPerStudyMS, p50MS float64) error {
	if cpuPerStudyMS <= gwMinBusyRatio*p50MS {
		return fmt.Errorf("gateway run is asleep, not busy: %.2f ms CPU per study against a %.2f ms median study (ratio %.2f <= %.1f): a timer dominates the measurement",
			cpuPerStudyMS, p50MS, cpuPerStudyMS/p50MS, gwMinBusyRatio)
	}
	return nil
}

// runGateway is the gateway workload end to end.
func runGateway(cfg runConfig, w workloadDef, rep *report) error {
	var (
		s      *gwStand
		mixes  [][]gwSubmission
		setups []float64
		probe  = newHostProbe()
	)
	for i := 0; i < cfg.setups(); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, mixes, err = setUpGateway(cfg, gwPerPass); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		probe.sample()
	}
	defer s.close()
	cfg.logf("set-up x%d: %.3f s median (%v)", len(setups), median(setups), setups)

	passes := cfg.reps(w)
	gp := runGatewayPasses(cfg, nil, s, mixes, probe, 0, passes)
	rep.Attempted, rep.Failed = gp.attempted, gp.failed
	if want, pinned := pinnedFingerprint(w.Name, cfg.Seed); pinned {
		if got, ok := prefixDigest(mixes, gp.results); ok && got != want {
			cfg.logf("served fingerprints digest %s differs from the pinned %s: a simulated statistic changed", got, want)
			rep.Failed = rep.Attempted
		}
	}
	fast, _ := gp.quiet()
	q := totals(fast)
	if err := checkBusy(float64(q.cpuNS)/1e6/float64(q.studies), median(gp.studyMS)); err != nil {
		return err
	}
	if !cfg.Trace {
		gp.endToEndMetrics(rep, median(setups))
		return nil
	}

	gp.processMetrics(rep)
	rep.set("gateway.submitted", float64(gp.ledger.Submitted))
	rep.set("gateway.deduped", float64(gp.ledger.Deduped))
	rep.set("gateway.rejected", float64(gp.ledger.Rejected))
	rep.set("gateway.dedup_share", float64(gp.ledger.Deduped)/float64(gp.attempted))
	rep.set("gateway.retained_mb", gp.retained)
	var all []float64
	for _, walls := range gp.passMS {
		all = append(all, walls...)
	}
	rep.set("gateway.study_p95_ms", quantile(all, 0.95))

	// Traced pass: one more pass, every Submit and Status call in a span.
	rec := newRecorder()
	tp := runGatewayPasses(cfg, rec, s, mixes, newHostProbe(), passes, 1)
	if tp.failed > 0 {
		return fmt.Errorf("traced pass: %d of %d studies failed", tp.failed, tp.attempted)
	}
	gatewaySpanMetrics(rep, rec, s, tp)
	rep.set("run.trace_overhead_ratio", median(tp.passMS[0])/median(all))

	// The ladder runs on the pool's first (default-size) study.
	spec := gwPoolSpec(0, 0, 0)
	opts := spec.RunOptions()
	opts.Seed = cfg.Seed
	p, err := prepareBaseFor(spec.FleetConfig(), opts)
	if err != nil {
		return err
	}
	if err := ladder(cfg, rec, p, rep); err != nil {
		return err
	}
	return writeSpans(spanPath(cfg), w.Name, cfg.Seed, rec.snapshot())
}

// gatewaySpanMetrics reduces the traced pass: client-side call times from
// the spans, queue and run time by joining the gateway's own admission and
// grant logs with the moment the client saw the study finish.
func gatewaySpanMetrics(rep *report, rec *recorder, s *gwStand, tp *gatewayPhase) {
	us := func(name string) float64 { return median(rec.durationsMS(name)) * 1000 }
	rep.set("gateway.submit_us", us("gateway.Submit"))
	rep.set("gateway.status_us", us("gateway.Status"))
	admitted := map[uint64]float64{}
	for _, a := range s.gw.Admissions() {
		if a.Decision == "queued" {
			admitted[a.Study] = a.AtSec
		}
	}
	granted := map[uint64]float64{}
	for _, g := range s.gw.Grants() {
		granted[g.Study] = g.AtSec
	}
	var polls, queueMS, runMS []float64
	for _, rs := range tp.results {
		for _, r := range rs {
			polls = append(polls, float64(r.polls))
			if r.deduped {
				continue
			}
			queueMS = append(queueMS, (granted[r.id]-admitted[r.id])*1000)
			runMS = append(runMS, (r.doneAt.Sub(s.start).Seconds()-granted[r.id])*1000)
		}
	}
	rep.set("gateway.status_polls", sum(polls)/float64(len(polls)))
	rep.set("gateway.queue_ms", median(queueMS))
	rep.set("gateway.run_ms", median(runMS))
}
