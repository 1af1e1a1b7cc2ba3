package hypervisor

import (
	"container/heap"
	"math"
	"sort"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// PollIO is one IO submitted to a queue pair, as the polling runtime sees
// it: an arrival time and a service cost.
type PollIO struct {
	QP        cluster.QPID
	ArriveUS  int64
	ServiceUS int64
}

// ServiceModel converts IO size to worker-thread service time; the default
// models a ~5 us fixed cost plus ~2 us per 4 KiB of payload handling.
func ServiceModel(sizeBytes int32) int64 {
	return 5 + int64(sizeBytes)/2048
}

// HostingMode selects the thread model of §4.4.
type HostingMode uint8

// Hosting modes.
const (
	// SingleWTPolling is production: each QP is pinned to one worker
	// thread, which polls its bound QPs round-robin — one IO per visit, so
	// a hot QP cannot starve its neighbours.
	SingleWTPolling HostingMode = iota
	// SharedQueueFIFO is the naive multi-WT alternative: every IO enters
	// one node-wide FIFO served by all worker threads. It balances load
	// perfectly but a hot QP's backlog delays everyone behind it.
	SharedQueueFIFO
)

func (m HostingMode) String() string {
	if m == SingleWTPolling {
		return "single-wt-polling"
	}
	return "shared-queue-fifo"
}

// PollingResult reports the per-QP service quality of a run.
type PollingResult struct {
	// MeanWaitUS[i] is the mean queueing delay of binding.QPs[i] (NaN if
	// the QP issued nothing).
	MeanWaitUS []float64
	// P99WaitUS[i] is the 99th-percentile wait of binding.QPs[i].
	P99WaitUS []float64
	// Isolation is the mean wait of the lighter half of active QPs divided
	// by the overall mean wait: below 1 means light QPs are insulated from
	// heavy ones (what single-WT polling provides); near or above 1 means
	// they inherit the hogs' queueing.
	Isolation float64
	// WTBusyUS[w] is the total service time worker thread w spent.
	WTBusyUS []int64
	// IOs is the number of IOs served.
	IOs int
}

// SimulatePolling replays a node's IOs under a hosting mode. ios may be in
// any order; the simulator sorts by arrival. The binding supplies the
// QP-to-WT pinning for SingleWTPolling and the thread count for both modes.
func SimulatePolling(binding *Binding, ios []PollIO, mode HostingMode) PollingResult {
	res := PollingResult{
		MeanWaitUS: make([]float64, len(binding.QPs)),
		P99WaitUS:  make([]float64, len(binding.QPs)),
		WTBusyUS:   make([]int64, binding.WTs),
	}
	qpIdx := make(map[cluster.QPID]int, len(binding.QPs))
	for i, qp := range binding.QPs {
		qpIdx[qp] = i
	}
	sorted := append([]PollIO(nil), ios...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ArriveUS < sorted[j].ArriveUS })

	waits := make([][]float64, len(binding.QPs))
	record := func(qp int, waitUS int64) {
		waits[qp] = append(waits[qp], float64(waitUS))
		res.IOs++
	}

	switch mode {
	case SingleWTPolling:
		// Partition IOs by worker thread and run each WT's polling loop.
		perWT := make([][]PollIO, binding.WTs)
		for _, io := range sorted {
			idx, ok := qpIdx[io.QP]
			if !ok {
				continue
			}
			wt := binding.WTOf[idx]
			perWT[wt] = append(perWT[wt], io)
		}
		for wt := range perWT {
			res.WTBusyUS[wt] = pollOneWT(binding, int8(wt), perWT[wt], qpIdx, record)
		}
	case SharedQueueFIFO:
		// k-server FIFO: each IO starts on the earliest-free thread.
		free := make(wtHeap, binding.WTs)
		for w := range free {
			free[w] = wtSlot{at: 0, wt: w}
		}
		heap.Init(&free)
		for _, io := range sorted {
			idx, ok := qpIdx[io.QP]
			if !ok {
				continue
			}
			slot := heap.Pop(&free).(wtSlot)
			start := max64(slot.at, io.ArriveUS)
			record(idx, start-io.ArriveUS)
			slot.at = start + io.ServiceUS
			res.WTBusyUS[slot.wt] += io.ServiceUS
			heap.Push(&free, slot)
		}
	}

	var meanWaits, counts []float64
	for i := range waits {
		if len(waits[i]) == 0 {
			res.MeanWaitUS[i] = math.NaN()
			res.P99WaitUS[i] = math.NaN()
			continue
		}
		res.MeanWaitUS[i] = stats.Mean(waits[i])
		res.P99WaitUS[i] = stats.Quantile(waits[i], 0.99)
		meanWaits = append(meanWaits, res.MeanWaitUS[i])
		counts = append(counts, float64(len(waits[i])))
	}
	res.Isolation = isolation(meanWaits, counts)
	return res
}

// isolation computes the light-QP wait ratio: the mean of mean-waits among
// QPs with at most the median IO count, over the overall mean of
// mean-waits. NaN with fewer than two active QPs.
func isolation(meanWaits, counts []float64) float64 {
	if len(meanWaits) < 2 {
		return math.NaN()
	}
	medianCount := stats.Median(counts)
	var lightSum float64
	var lightN int
	for i, c := range counts {
		if c <= medianCount {
			lightSum += meanWaits[i]
			lightN++
		}
	}
	overall := stats.Mean(meanWaits)
	if lightN == 0 || overall <= 0 {
		return math.NaN()
	}
	return (lightSum / float64(lightN)) / overall
}

// pollOneWT runs one worker thread's polling loop over its QPs: the thread
// cycles through bound queue pairs, serving at most one queued IO per
// visit; when every queue is empty it sleeps until the next arrival.
func pollOneWT(binding *Binding, wt int8, ios []PollIO, qpIdx map[cluster.QPID]int, record func(qp int, waitUS int64)) int64 {
	// Per-QP FIFO queues (by arrival; ios are pre-sorted).
	var qps []int // QP indices bound to this WT, in canonical order
	for i := range binding.QPs {
		if binding.WTOf[i] == wt {
			qps = append(qps, i)
		}
	}
	if len(qps) == 0 || len(ios) == 0 {
		return 0
	}
	queues := make(map[int][]PollIO, len(qps))
	next := 0 // next unarrived IO in ios
	var clock, busy int64
	cursor := 0 // round-robin position within qps

	admit := func(until int64) {
		for next < len(ios) && ios[next].ArriveUS <= until {
			idx := qpIdx[ios[next].QP]
			queues[idx] = append(queues[idx], ios[next])
			next++
		}
	}
	remaining := len(ios)
	for remaining > 0 {
		admit(clock)
		// One polling sweep: visit each QP once from the cursor.
		served := false
		for v := 0; v < len(qps); v++ {
			qp := qps[(cursor+v)%len(qps)]
			q := queues[qp]
			if len(q) == 0 {
				continue
			}
			io := q[0]
			queues[qp] = q[1:]
			record(qp, clock-io.ArriveUS)
			clock += io.ServiceUS
			busy += io.ServiceUS
			remaining--
			cursor = (cursor + v + 1) % len(qps)
			served = true
			break
		}
		if !served {
			// Idle: jump to the next arrival.
			if next < len(ios) {
				if ios[next].ArriveUS > clock {
					clock = ios[next].ArriveUS
				}
				admit(clock)
			} else {
				break
			}
		}
	}
	return busy
}

// wtHeap is a min-heap of worker-thread availability times.
type wtSlot struct {
	at int64
	wt int
}

type wtHeap []wtSlot

func (h wtHeap) Len() int            { return len(h) }
func (h wtHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h wtHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wtHeap) Push(x interface{}) { *h = append(*h, x.(wtSlot)) }
func (h *wtHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
