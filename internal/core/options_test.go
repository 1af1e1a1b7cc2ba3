package core

import (
	"math"
	"testing"
)

// validatable is what every option struct in options.go implements.
type validatable interface{ Validate() error }

func TestOptionsZeroValuesValidate(t *testing.T) {
	zeros := []validatable{
		NodeWindowOptions{}, PeriodOptions{}, VDSampleOptions{}, BlockSampleOptions{},
		Fig3deOptions{}, Fig3fgOptions{}, Fig4aOptions{}, Fig4cOptions{},
		Fig7dOptions{}, RebindOptions{}, DispatchOptions{},
		CacheDeploymentOptions{}, PageCacheOptions{},
	}
	for _, o := range zeros {
		if err := o.Validate(); err != nil {
			t.Errorf("%T zero value rejected: %v", o, err)
		}
	}
}

func TestOptionsValidateRejectsGarbage(t *testing.T) {
	bad := []validatable{
		NodeWindowOptions{MaxNodes: -1},
		NodeWindowOptions{WinSec: -5},
		Fig3deOptions{Rates: []float64{0.2, math.NaN()}},
		Fig3deOptions{Rates: []float64{-0.2}},
		Fig3deOptions{Rates: []float64{1.5}},
		Fig3fgOptions{PeriodSec: -60},
		Fig4aOptions{Windows: []int{2, 0}},
		Fig4cOptions{EpochLen: -1},
		VDSampleOptions{MaxEventsPerVD: -100},
		BlockSampleOptions{BlockMiB: -2048},
		Fig7dOptions{Threshold: math.NaN()},
		Fig7dOptions{Threshold: -0.1},
		Fig7dOptions{Threshold: 1.01},
		CacheDeploymentOptions{CNFrac: math.NaN()},
		CacheDeploymentOptions{CNFrac: 2},
		PageCacheOptions{MaxVDs: -3},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%T %+v passed Validate", o, o)
		}
	}
}

// TestStudyMethodsRejectInvalidOptions verifies the guard is actually wired
// into the method entry points, not just available.
func TestStudyMethodsRejectInvalidOptions(t *testing.T) {
	s := study(t)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted invalid options without panicking", name)
			}
		}()
		f()
	}
	mustPanic("Fig3deReduction", func() { s.Fig3deReduction(Fig3deOptions{Rates: []float64{math.NaN()}}) })
	mustPanic("Fig7dSpaceUtilization", func() { s.Fig7dSpaceUtilization(Fig7dOptions{Threshold: math.Inf(1)}) })
	mustPanic("AblateCacheDeployment", func() { s.AblateCacheDeployment(CacheDeploymentOptions{MaxVDs: -1}) })
	mustPanic("Fig4aFrequentMigration", func() { s.Fig4aFrequentMigration(Fig4aOptions{PeriodSec: -5}) })
}
