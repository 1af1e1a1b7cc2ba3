package core

import (
	"fmt"

	"ebslab/internal/hypervisor"
)

// This file defines the option structs of the Study API. Only the sampling
// budgets — how many of the busiest nodes or disks a simulation replays, over
// how long a window or how many events — and the settings an ablation sweeps
// are options: the goldens pin small budgets to stay cheap, and the catalog
// varies the swept settings. Every other parameter of a figure (balancing
// period, lending rates, block size, thresholds) is a constant beside the
// method that uses it, at the one value the report runs.
//
// Each struct's zero value selects the method's documented defaults; methods
// with the same knobs share one type, and where their defaults differ, each
// method applies its own. Each struct has a Validate method mirroring
// ebs.Options: negative counts are rejected rather than silently rewritten.
// The Study methods cannot return errors, so they panic on invalid options —
// misconfigured options are a programming error, like a negative slice
// capacity.

// intField is a (name, value) pair checked by nonNeg.
type intField struct {
	name string
	v    int64
}

// nonNeg rejects negative counts; zero always means "use the default".
func nonNeg(structName string, fields ...intField) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("core: %s.%s is %d, want >= 0", structName, f.name, f.v)
		}
	}
	return nil
}

// mustOpt is the guard the Study methods place in front of their option
// struct: Validate errors become panics because the methods have no error
// return.
func mustOpt(err error) {
	if err != nil {
		panic(err)
	}
}

// NodeWindowOptions tunes the studies that replay the busiest nodes over a
// short window: the Fig 2(e)/(f) burst series (defaults 40 nodes, 20 s) and
// the hosting-model ablation (24, 10).
type NodeWindowOptions struct {
	MaxNodes int // busiest-node cap (0 = the method's default)
	WinSec   int // window in seconds (0 = the method's default)
}

// VDSampleOptions tunes the studies that replay events of the busiest VDs
// (the latency studies keep only the cacheable ones). Defaults, as (VDs,
// events per VD): the Fig 6 LBA-hotspot analysis (48, 20000), the Fig 7(a)
// cache hit-ratio replay (32, 20000), the Fig 7(b)/(c) frozen-cache latency
// study (24, 12000), the cache-policy ablation (24, 8000) and the
// cache-deployment ablation (16, 8000).
type VDSampleOptions struct {
	MaxVDs         int // VD cap (0 = the method's default)
	MaxEventsPerVD int // events replayed per VD (0 = the method's default)
}

// RebindOptions tunes the Fig 2(d) rebinding simulation and its
// rebinding-period ablation.
type RebindOptions struct {
	MaxNodes int // busiest-node cap (0 = 60)
	WinSec   int // window in seconds (0 = 30)
	// PeriodSlots is the rebinding period in 10 ms slots (0 = 1, the
	// paper's 10 ms).
	PeriodSlots int
}

// DispatchOptions tunes the dispatch-policy ablation.
type DispatchOptions struct {
	MaxNodes int // busiest-node cap (0 = 24)
	WinSec   int // window in seconds (0 = 10)
	// Policy selects the dispatch model (zero value = single-WT hosting).
	Policy hypervisor.DispatchPolicy
}

// --- Validate methods -------------------------------------------------------

// Validate reports whether the options are usable.
func (o NodeWindowOptions) Validate() error {
	return nonNeg("NodeWindowOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)})
}

// Validate reports whether the options are usable.
func (o VDSampleOptions) Validate() error {
	return nonNeg("VDSampleOptions",
		intField{"MaxVDs", int64(o.MaxVDs)}, intField{"MaxEventsPerVD", int64(o.MaxEventsPerVD)})
}

// Validate reports whether the options are usable.
func (o RebindOptions) Validate() error {
	return nonNeg("RebindOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)},
		intField{"PeriodSlots", int64(o.PeriodSlots)})
}

// Validate reports whether the options are usable.
func (o DispatchOptions) Validate() error {
	return nonNeg("DispatchOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)})
}
