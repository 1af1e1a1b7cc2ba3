package main

// The catalog is the program's half of the contract with BENCHMARK.json:
// bench_test.go fails when the two disagree on a workload or a metric.

// nominalSeconds is the timed-phase length the repetition counts below were
// sized for (BENCHMARK.json's run_seconds). A different -seconds scales the
// counts linearly; nothing is calibrated at run time, so two commits always
// execute the same number of studies.
const nominalSeconds = 12

const (
	numSetups = 5 // in-process set-ups per run; their median is setup_s
	warmReps  = 2 // untimed repetitions at the end of every set-up
)

type workloadDef struct {
	Name string
	Why  string
	// Reps is the number of timed studies at nominalSeconds; for gateway,
	// the number of passes over the submission mix.
	Reps int
	// prepare is one set-up's input synthesis (workloads.go); nil for
	// gateway, whose run has its own shape (gateway.go).
	prepare func(seed int64) (*prepared, error)
}

var workloads = []workloadDef{
	{"sim-traced", "every IO becomes a retained record: diting emit/merge and dataset assembly dominate and memory is at its worst (ebssim's default shape)", 80, prepareSimTraced},
	{"sim-sampled", "same IOs at 1/3200 tracing with sketches: diting discards, sketch ingests, so workload/throttle/latency dominate; a retention gain must not move it", 140, prepareSimSampled},
	{"control", "two-pass observe-plan-act through RunControlled (reactive, 7 s epochs): the path the stepping-engine item must move", 40, prepareControl},
	{"dist", "the study on the fabric as ebssim -dist 2 runs it: coordinator, netblock loopback, 2 workers, 8 shards; fabric/netblock/consensus are the difference to sim-traced", 40, prepareDist},
	{"replay", "ingest of a seed-synthesised 400000-row tianchi CSV then a run of it: the only workload where scenario is on the blocking path", 40, prepareReplay},
	{"gateway", "always-on gateway, 2 closed-loop clients, many small studies of skewed size with repeats: per-study fixed cost, admission and status traffic dominate", 10, nil},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd are printed by an untraced run (-trace 0). The sizing host runs
// in spells: quiet ones where every timing repeats within 1-4%, and noisy
// ones, minutes long, where unchanged code takes 15-35% longer. Reported at
// the reference host's speed (hostref.go), two back-to-back sets of ten runs
// still spread up to 9% and their medians differed by up to 7%, and the
// correction leaves up to 10% of a spell in place; the timings take the
// widest bound the benchmark's contract allows. The heap repeats within
// 0.4% and takes 5%. See README.md for the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"study_p50_ms", "ms", "lower", 0.25},
	{"ios_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_study", "ms", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// perLayer are printed by a traced run (-trace 1). A layer a workload never
// calls reports 0 busy time there; see gatewayOnly.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower", 0},
	{"workload.series_ms", "ms", "lower", 0},
	{"workload.series_vdsec", "count", "higher", 0},
	{"workload.events_ms", "ms", "lower", 0},
	{"workload.events", "count", "higher", 0},
	{"throttle.replay_ms", "ms", "lower", 0},
	{"throttle.vdsec", "count", "higher", 0},
	{"throttle.throttled_sec", "count", "lower", 0},
	{"latency.sample_ms", "ms", "lower", 0},
	{"latency.samples", "count", "higher", 0},
	{"diting.emit_ms", "ms", "lower", 0},
	{"diting.records_in", "count", "higher", 0},
	{"diting.records_kept", "count", "higher", 0},
	{"diting.merge_ms", "ms", "lower", 0},
	{"diting.merge_records", "count", "higher", 0},
	{"sketch.ingest_ms", "ms", "lower", 0},
	{"sketch.records", "count", "higher", 0},
	{"sketch.merge_ms", "ms", "lower", 0},
	{"sketch.encode_ms", "ms", "lower", 0},
	{"sketch.decode_ms", "ms", "lower", 0},
	{"sketch.encoded_bytes", "bytes", "lower", 0},
	{"trace.csv_write_ms", "ms", "lower", 0},
	{"trace.csv_read_ms", "ms", "lower", 0},
	{"trace.jsonl_read_ms", "ms", "lower", 0},
	{"trace.codec_bytes", "bytes", "lower", 0},
	{"scenario.ingest_ms", "ms", "lower", 0},
	{"scenario.ingest_records", "count", "higher", 0},
	{"scenario.ingest_kept", "count", "higher", 0},
	{"scenario.ingest_allocs", "count", "lower", 0},
	{"scenario.bind_ms", "ms", "lower", 0},
	{"control.observe_ms", "ms", "lower", 0},
	{"control.plan_ms", "ms", "lower", 0},
	{"control.act_ms", "ms", "lower", 0},
	{"control.decisions", "count", "higher", 0},
	{"control.overhead_ratio", "ratio", "lower", 0},
	{"ebs.run_ms", "ms", "lower", 0},
	{"ebs.run_cpu_ms", "ms", "lower", 0},
	{"ebs.ios", "count", "higher", 0},
	{"ebs.records", "count", "higher", 0},
	{"ebs.unattributed_ms", "ms", "lower", 0},
	{"ebs.shard_ms", "ms", "lower", 0},
	{"ebs.merge_shards_ms", "ms", "lower", 0},
	{"ebs.new_ms", "ms", "lower", 0},
	{"netblock.rtt_us", "us", "lower", 0},
	{"netblock.rtt_64k_us", "us", "lower", 0},
	{"netblock.calls", "count", "lower", 0},
	{"netblock.retries", "count", "lower", 0},
	{"consensus.commit1_us", "us", "lower", 0},
	{"consensus.commit3_us", "us", "lower", 0},
	{"consensus.proposals", "count", "higher", 0},
	{"consensus.codec_ns", "ns", "lower", 0},
	{"fabric.study_ms", "ms", "lower", 0},
	{"fabric.standup_ms", "ms", "lower", 0},
	{"fabric.overhead_ms", "ms", "lower", 0},
	{"fabric.shards", "count", "higher", 0},
	{"fabric.requests", "count", "lower", 0},
	{"fabric.dispatched", "count", "lower", 0},
	{"fabric.accepted", "count", "higher", 0},
	{"fabric.duplicates", "count", "lower", 0},
	{"gateway.submit_us", "us", "lower", 0},
	{"gateway.status_us", "us", "lower", 0},
	{"gateway.status_polls", "count", "lower", 0},
	{"gateway.queue_ms", "ms", "lower", 0},
	{"gateway.run_ms", "ms", "lower", 0},
	{"gateway.submitted", "count", "higher", 0},
	{"gateway.deduped", "count", "higher", 0},
	{"gateway.rejected", "count", "lower", 0},
	{"gateway.dedup_share", "ratio", "higher", 0},
	{"gateway.retained_mb", "MiB", "lower", 0},
	{"gateway.study_p95_ms", "ms", "lower", 0},
	{"invariant.fingerprint_ms", "ms", "lower", 0},
	{"invariant.check_ratio", "ratio", "lower", 0},
	{"process.peak_rss_mb", "MiB", "lower", 0},
	{"process.allocs_per_study", "count", "lower", 0},
	{"process.alloc_mb_per_study", "MiB", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"run.quiet_spread", "ratio", "lower", 0},
	{"run.host_speed", "ratio", "higher", 0},
	{"run.trace_overhead_ratio", "ratio", "lower", 0},
	{"run.failed_share", "ratio", "lower", 0},
}

// gatewayOnly lists the per-layer metrics that only the gateway workload
// can measure (they wrap calls no batch workload makes); the batch workloads
// report them as 0.
var gatewayOnly = []string{
	"gateway.submit_us", "gateway.status_us", "gateway.status_polls",
	"gateway.queue_ms", "gateway.run_ms", "gateway.submitted",
	"gateway.deduped", "gateway.rejected", "gateway.dedup_share",
	"gateway.retained_mb", "gateway.study_p95_ms",
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
