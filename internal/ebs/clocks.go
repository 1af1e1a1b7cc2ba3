package ebs

import "time"

// Clocks is a run's time by engine stage: the engine's own clock sink,
// filled when Options.Clocks points at one and the run succeeds. The five
// per-disk stages are each shard's own sums, added up at the join, so on w
// busy workers they total about w times the pool's wall time; Finish and
// Check are serial, after the join. A controlled run adds the two wall
// times ahead of its actuated pass, Observe and Plan; a plain run leaves
// them zero. Bind is RunSpec.Open's, ahead of any run, and a run leaves it
// as Open set it. Nothing they measure reaches a dataset, a sketch or a
// fingerprint.
type Clocks struct {
	Bind     time.Duration // RunSpec.Open's scenario binding: a replay's ingest (zero without a scenario)
	Observe  time.Duration // the observe pass: generation, counting and keeping the events (controlled runs)
	Plan     time.Duration // ControlInput and BuildPlan (controlled runs)
	Generate time.Duration // each disk's wall time outside the four stages below: series, events (or their replay), batch fill
	Throttle time.Duration // throttle replay and scenario delay series, per disk
	Latency  time.Duration // the latency batch and its additive terms, per flush
	Emit     time.Duration // the tracer's EmitBatch, per flush
	Sketch   time.Duration // the sketch ingest, per flush (zero unless streaming)
	Finish   time.Duration // the join onward: merges, metric rows, dataset assembly
	Check    time.Duration // the invariant suite
}

// addShard folds one shard's clocks into c. A shard's Generate holds its
// disks' whole wall time; the stages inside it come off here.
func (c *Clocks) addShard(s Clocks) {
	c.Generate += s.Generate - s.Throttle - s.Latency - s.Emit - s.Sketch
	c.Throttle += s.Throttle
	c.Latency += s.Latency
	c.Emit += s.Emit
	c.Sketch += s.Sketch
}

// stopwatch reads the clock only when it is on, so a run that asks for no
// clocks reads none.
type stopwatch bool

// now returns the time, or the zero time when the stopwatch is off.
func (on stopwatch) now() time.Time {
	if !on {
		return time.Time{}
	}
	return time.Now()
}

// lap adds the time since t to *d and returns the time it read; off, it
// reads no clock and returns t.
func (on stopwatch) lap(d *time.Duration, t time.Time) time.Time {
	if !on {
		return t
	}
	now := time.Now()
	*d += now.Sub(t)
	return now
}
