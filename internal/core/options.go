package core

import (
	"fmt"
	"math"

	"ebslab/internal/guestcache"
	"ebslab/internal/hypervisor"
)

// This file defines the per-method option structs of the Study API. Every
// figure, table, and ablation method takes one small struct whose zero
// value selects the documented defaults — callers name only the knobs they
// change, instead of passing positional zeros. Methods with the same knobs
// share one type; where their defaults differ, each method applies its own.
//
// Each struct has a Validate method mirroring ebs.Options: zero values are
// defaults and always valid; negative counts and NaN or out-of-range rates
// are rejected rather than silently rewritten. The Study methods cannot
// return errors, so they panic on invalid options — misconfigured options
// are a programming error, like a negative slice capacity.

// intField and rateField are (name, value) pairs checked by the shared
// validators below.
type intField struct {
	name string
	v    int64
}

type rateField struct {
	name string
	v    float64
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

// unitRate rejects NaN and values outside [0, 1]; rates in this package are
// fractions (lending rate p, cache split, access-rate threshold).
func unitRate(structName string, fields ...rateField) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("core: %s.%s is %v, want a rate in [0, 1]", structName, f.name, f.v)
		}
	}
	return nil
}

// lendingRates rejects a rate sweep containing NaN or values outside (0, 1);
// nil selects the documented default sweep.
func lendingRates(structName string, rates []float64) error {
	for i, r := range rates {
		if math.IsNaN(r) || r <= 0 || r >= 1 {
			return fmt.Errorf("core: %s.Rates[%d] is %v, want a lending rate in (0, 1)", structName, i, r)
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

// PeriodOptions tunes the studies whose only knob is the balancing period:
// Fig 4(b), Fig 5(a)-(c) and the predictor and failover ablations.
type PeriodOptions struct {
	PeriodSec int // balancing period in seconds (0 = 5)
}

// VDSampleOptions tunes the studies that replay events of the busiest VDs:
// the Fig 6 LBA-hotspot analysis (default 48 VDs) and the Fig 7(a) cache
// hit-ratio replay (32).
type VDSampleOptions struct {
	MaxVDs         int // busiest-VD cap (0 = the method's default)
	MaxEventsPerVD int // events replayed per VD (0 = 20000)
}

// BlockSampleOptions tunes the block-cache replays: the Fig 7(b)/(c)
// frozen-cache latency study (defaults 24 VDs, 12000 events, 2048 MiB) and
// the cache-policy ablation (24, 8000, 256).
type BlockSampleOptions struct {
	MaxVDs         int   // busiest-VD cap (0 = 24)
	MaxEventsPerVD int   // events replayed per VD (0 = the method's default)
	BlockMiB       int64 // cache block size in MiB (0 = the method's default)
}

// Fig3deOptions tunes the Fig 3(d)/(e) reduction-rate study.
type Fig3deOptions struct {
	// MultiVMNode switches the grouping scope from multi-VD VMs (the
	// default) to multi-VM nodes.
	MultiVMNode bool
	// Rates are the lending rates evaluated (nil = 0.2, 0.4, 0.6, 0.8).
	Rates []float64
}

// Fig3fgOptions tunes the Fig 3(f)/(g) lending-gain simulation.
type Fig3fgOptions struct {
	MultiVMNode bool
	Rates       []float64 // lending rates (nil = 0.2, 0.4, 0.6, 0.8)
	PeriodSec   int       // lending re-evaluation period (0 = 60)
}

// Fig4aOptions tunes the Fig 4(a) frequent-migration study.
type Fig4aOptions struct {
	PeriodSec int   // balancing period in seconds (0 = 5)
	Windows   []int // window scales in periods (nil = 1, 2, 4)
}

// Fig4cOptions tunes the Fig 4(c) prediction-MSE comparison.
type Fig4cOptions struct {
	PeriodSec int // balancing period in seconds (0 = 5)
	EpochLen  int // epoch length in periods for P3/P4 (0 = 30)
}

// Fig7dOptions tunes the Fig 7(d) space-utilization study.
type Fig7dOptions struct {
	// Threshold is the hottest-block access-rate cut above which a VD
	// counts as cacheable (0 = cacheableAccessRate, 0.25).
	Threshold float64
}

// RebindOptions tunes the Fig 2(d) rebinding simulation and its
// rebinding-period ablation.
type RebindOptions struct {
	MaxNodes int // busiest-node cap (0 = 60)
	WinSec   int // window in seconds (0 = 30)
	// Config is the rebinding configuration under test (zero value =
	// hypervisor.DefaultRebindConfig()).
	Config hypervisor.RebindConfig
}

// DispatchOptions tunes the dispatch-policy ablation.
type DispatchOptions struct {
	MaxNodes int // busiest-node cap (0 = 40)
	WinSec   int // window in seconds (0 = 20)
	// Policy selects the dispatch model (zero value = single-WT hosting).
	Policy hypervisor.DispatchPolicy
}

// CacheDeploymentOptions tunes the cache-deployment ablation.
type CacheDeploymentOptions struct {
	MaxVDs         int     // cacheable-VD cap (0 = 16)
	MaxEventsPerVD int     // events replayed per VD (0 = 8000)
	BlockMiB       int64   // frozen-cache block size in MiB (0 = 2048)
	CNFrac         float64 // hybrid split: fraction cached at the CN (0 = 0.25)
}

// PageCacheOptions tunes the guest page-cache study.
type PageCacheOptions struct {
	MaxVDs         int   // busiest-VD cap (0 = 16)
	MaxEventsPerVD int   // app-level events replayed per VD (0 = 10000)
	BlockMiB       int64 // hotspot block size in MiB (0 = 256)
	// Guest configures the simulated page cache (zero value = the default
	// config with a 2 s flush interval).
	Guest guestcache.Config
}

// --- Validate methods -------------------------------------------------------

// Validate reports whether the options are usable.
func (o NodeWindowOptions) Validate() error {
	return nonNeg("NodeWindowOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)})
}

// Validate reports whether the options are usable.
func (o PeriodOptions) Validate() error {
	return nonNeg("PeriodOptions", intField{"PeriodSec", int64(o.PeriodSec)})
}

// Validate reports whether the options are usable.
func (o VDSampleOptions) Validate() error {
	return nonNeg("VDSampleOptions",
		intField{"MaxVDs", int64(o.MaxVDs)}, intField{"MaxEventsPerVD", int64(o.MaxEventsPerVD)})
}

// Validate reports whether the options are usable.
func (o BlockSampleOptions) Validate() error {
	return nonNeg("BlockSampleOptions",
		intField{"MaxVDs", int64(o.MaxVDs)}, intField{"MaxEventsPerVD", int64(o.MaxEventsPerVD)},
		intField{"BlockMiB", o.BlockMiB})
}

// Validate reports whether the options are usable.
func (o Fig3deOptions) Validate() error {
	return lendingRates("Fig3deOptions", o.Rates)
}

// Validate reports whether the options are usable.
func (o Fig3fgOptions) Validate() error {
	if err := lendingRates("Fig3fgOptions", o.Rates); err != nil {
		return err
	}
	return nonNeg("Fig3fgOptions", intField{"PeriodSec", int64(o.PeriodSec)})
}

// Validate reports whether the options are usable.
func (o Fig4aOptions) Validate() error {
	if err := nonNeg("Fig4aOptions", intField{"PeriodSec", int64(o.PeriodSec)}); err != nil {
		return err
	}
	for i, w := range o.Windows {
		if w <= 0 {
			return fmt.Errorf("core: Fig4aOptions.Windows[%d] is %d, want > 0", i, w)
		}
	}
	return nil
}

// Validate reports whether the options are usable.
func (o Fig4cOptions) Validate() error {
	return nonNeg("Fig4cOptions",
		intField{"PeriodSec", int64(o.PeriodSec)}, intField{"EpochLen", int64(o.EpochLen)})
}

// Validate reports whether the options are usable.
func (o Fig7dOptions) Validate() error {
	return unitRate("Fig7dOptions", rateField{"Threshold", o.Threshold})
}

// Validate reports whether the options are usable.
func (o RebindOptions) Validate() error {
	return nonNeg("RebindOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)})
}

// Validate reports whether the options are usable.
func (o DispatchOptions) Validate() error {
	return nonNeg("DispatchOptions",
		intField{"MaxNodes", int64(o.MaxNodes)}, intField{"WinSec", int64(o.WinSec)})
}

// Validate reports whether the options are usable.
func (o CacheDeploymentOptions) Validate() error {
	if err := nonNeg("CacheDeploymentOptions",
		intField{"MaxVDs", int64(o.MaxVDs)}, intField{"MaxEventsPerVD", int64(o.MaxEventsPerVD)},
		intField{"BlockMiB", o.BlockMiB}); err != nil {
		return err
	}
	return unitRate("CacheDeploymentOptions", rateField{"CNFrac", o.CNFrac})
}

// Validate reports whether the options are usable.
func (o PageCacheOptions) Validate() error {
	return nonNeg("PageCacheOptions",
		intField{"MaxVDs", int64(o.MaxVDs)}, intField{"MaxEventsPerVD", int64(o.MaxEventsPerVD)},
		intField{"BlockMiB", o.BlockMiB})
}
