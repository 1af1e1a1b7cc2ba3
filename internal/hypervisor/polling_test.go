package hypervisor

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/cluster"
)

// pollTopology: one node, 2 WTs, 4 single-QP VDs (QPs 0..3). Round-robin
// puts QPs {0,2} on WT0 and {1,3} on WT1.
func pollTopology(t *testing.T) *cluster.Topology {
	t.Helper()
	top := &cluster.Topology{DCs: 1, Users: 1}
	top.Nodes = []cluster.ComputeNode{{ID: 0, WorkerNum: 2, VMs: []cluster.VMID{0}}}
	vm := cluster.VM{ID: 0, User: 0, Node: 0}
	for d := 0; d < 4; d++ {
		vd := cluster.VD{
			ID: cluster.VDID(d), VM: 0, Capacity: 32 << 30,
			QPs:      []cluster.QPID{cluster.QPID(d)},
			Segments: []cluster.SegmentID{cluster.SegmentID(d)},
		}
		top.VDs = append(top.VDs, vd)
		top.QPs = append(top.QPs, cluster.QP{ID: cluster.QPID(d), VD: cluster.VDID(d)})
		top.Segments = append(top.Segments, cluster.Segment{ID: cluster.SegmentID(d), VD: cluster.VDID(d)})
		vm.VDs = append(vm.VDs, cluster.VDID(d))
	}
	top.VMs = []cluster.VM{vm}
	if err := top.Validate(); err != nil {
		t.Fatalf("topology: %v", err)
	}
	return top
}

func TestServiceModel(t *testing.T) {
	if ServiceModel(4096) <= ServiceModel(0) {
		t.Fatal("service time not increasing in size")
	}
}

func TestPollingServesEverything(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	var ios []PollIO
	for i := 0; i < 100; i++ {
		ios = append(ios, PollIO{QP: cluster.QPID(i % 4), ArriveUS: int64(i * 10), ServiceUS: 5})
	}
	for _, mode := range []HostingMode{SingleWTPolling, SharedQueueFIFO} {
		res := SimulatePolling(b, ios, mode)
		if res.IOs != 100 {
			t.Fatalf("%v served %d of 100", mode, res.IOs)
		}
		var busy int64
		for _, v := range res.WTBusyUS {
			busy += v
		}
		if busy != 500 {
			t.Fatalf("%v total busy %d, want 500", mode, busy)
		}
	}
}

func TestPollingFairnessUnderHotQP(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	// QP0 floods; QP2 (same WT under round-robin) trickles. Under polling,
	// QP2 is served every other visit, so its waits stay bounded; under a
	// shared FIFO its IOs queue behind QP0's backlog.
	var ios []PollIO
	for i := 0; i < 400; i++ {
		ios = append(ios, PollIO{QP: 0, ArriveUS: 0, ServiceUS: 10}) // burst at t=0
	}
	for i := 0; i < 10; i++ {
		ios = append(ios, PollIO{QP: 2, ArriveUS: int64(i * 100), ServiceUS: 10})
	}
	poll := SimulatePolling(b, ios, SingleWTPolling)
	fifo := SimulatePolling(b, ios, SharedQueueFIFO)

	// QP2's mean wait under polling must be far below its wait under FIFO.
	if !(poll.MeanWaitUS[2] < fifo.MeanWaitUS[2]/5) {
		t.Fatalf("polling QP2 wait %v not well below FIFO %v", poll.MeanWaitUS[2], fifo.MeanWaitUS[2])
	}
	// Polling insulates the light QP (isolation << 1); FIFO makes it
	// inherit the hog's backlog (isolation ~ 1).
	if !(poll.Isolation < fifo.Isolation*0.5) {
		t.Fatalf("polling isolation %v not well below FIFO %v", poll.Isolation, fifo.Isolation)
	}
}

func TestSharedQueueBalancesBetter(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	// All traffic on QP0: single-WT hosting leaves WT1 idle; the shared
	// queue spreads service across both threads (the §4.4 motivation).
	var ios []PollIO
	for i := 0; i < 200; i++ {
		ios = append(ios, PollIO{QP: 0, ArriveUS: 0, ServiceUS: 10})
	}
	poll := SimulatePolling(b, ios, SingleWTPolling)
	fifo := SimulatePolling(b, ios, SharedQueueFIFO)
	if poll.WTBusyUS[1] != 0 {
		t.Fatalf("single-WT hosting used WT1: %v", poll.WTBusyUS)
	}
	if fifo.WTBusyUS[0] == 0 || fifo.WTBusyUS[1] == 0 {
		t.Fatalf("shared queue left a thread idle: %v", fifo.WTBusyUS)
	}
	// Balanced service halves the hot QP's mean wait.
	if !(fifo.MeanWaitUS[0] < poll.MeanWaitUS[0]) {
		t.Fatalf("FIFO wait %v not below polling %v for the hot QP", fifo.MeanWaitUS[0], poll.MeanWaitUS[0])
	}
}

func TestPollingIdleQPsAreNaN(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	ios := []PollIO{{QP: 0, ArriveUS: 5, ServiceUS: 3}}
	res := SimulatePolling(b, ios, SingleWTPolling)
	if math.IsNaN(res.MeanWaitUS[0]) {
		t.Fatal("active QP reported NaN")
	}
	for _, i := range []int{1, 2, 3} {
		if !math.IsNaN(res.MeanWaitUS[i]) {
			t.Fatalf("idle QP %d has wait %v", i, res.MeanWaitUS[i])
		}
	}
	// A lone IO arriving later than t=0 must not wait.
	if res.MeanWaitUS[0] != 0 {
		t.Fatalf("lone IO waited %v", res.MeanWaitUS[0])
	}
}

func TestPollingIgnoresForeignQPs(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	ios := []PollIO{{QP: 99, ArriveUS: 0, ServiceUS: 3}}
	res := SimulatePolling(b, ios, SingleWTPolling)
	if res.IOs != 0 {
		t.Fatal("foreign QP IO was served")
	}
}

func TestHostingModeString(t *testing.T) {
	if SingleWTPolling.String() == "" || SharedQueueFIFO.String() == "" {
		t.Fatal("empty mode strings")
	}
}

func TestPollingDeterministic(t *testing.T) {
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	rng := rand.New(rand.NewSource(4))
	var ios []PollIO
	for i := 0; i < 300; i++ {
		ios = append(ios, PollIO{
			QP: cluster.QPID(rng.Intn(4)), ArriveUS: int64(rng.Intn(5000)), ServiceUS: int64(1 + rng.Intn(20)),
		})
	}
	a := SimulatePolling(b, ios, SingleWTPolling)
	c := SimulatePolling(b, ios, SingleWTPolling)
	for i := range a.MeanWaitUS {
		aw, cw := a.MeanWaitUS[i], c.MeanWaitUS[i]
		if aw != cw && !(math.IsNaN(aw) && math.IsNaN(cw)) {
			t.Fatal("polling simulation not deterministic")
		}
	}
}

func TestPollingConservation(t *testing.T) {
	// Property-ish check: served IOs == offered IOs on valid QPs, and busy
	// time equals summed service time, for random workloads.
	top := pollTopology(t)
	b := RoundRobin(top, 0)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ios []PollIO
		var service int64
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s := int64(1 + rng.Intn(30))
			service += s
			ios = append(ios, PollIO{QP: cluster.QPID(rng.Intn(4)), ArriveUS: int64(rng.Intn(2000)), ServiceUS: s})
		}
		for _, mode := range []HostingMode{SingleWTPolling, SharedQueueFIFO} {
			res := SimulatePolling(b, ios, mode)
			if res.IOs != n {
				t.Fatalf("seed %d %v: served %d of %d", seed, mode, res.IOs, n)
			}
			var busy int64
			for _, v := range res.WTBusyUS {
				busy += v
			}
			if busy != service {
				t.Fatalf("seed %d %v: busy %d != service %d", seed, mode, busy, service)
			}
		}
	}
}
