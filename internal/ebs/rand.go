package ebs

import (
	"ebslab/internal/cluster"
	"ebslab/internal/xrand"
)

// latencySeed derives the latency-sampling seed of one virtual disk from
// the base seed (the fleet seed, or the Options.Seed override). Each disk
// gets its own child stream keyed by (seed, VD), so latency draws are a
// pure function of the disk — independent of simulation order, shard
// assignment, and worker count. The engine feeds this seed to the pooled
// xrand source.
func latencySeed(seed int64, vd cluster.VDID) int64 {
	base := uint64(seed) ^ 0x1a7e9c
	return int64(xrand.Mix64(base ^ (uint64(vd)+1)*0x9e3779b97f4a7c15))
}
