package core

import (
	"testing"
)

// validatable is what every option struct in options.go implements.
type validatable interface{ Validate() error }

func TestOptionsZeroValuesValidate(t *testing.T) {
	zeros := []validatable{
		NodeWindowOptions{}, VDSampleOptions{}, RebindOptions{}, DispatchOptions{},
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
		VDSampleOptions{MaxEventsPerVD: -100},
		VDSampleOptions{MaxVDs: -24},
		RebindOptions{WinSec: -30},
		DispatchOptions{MaxNodes: -2},
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
	mustPanic("Fig2dRebinding", func() { s.Fig2dRebinding(RebindOptions{MaxNodes: -1}) })
	mustPanic("Fig6HottestBlocks", func() { s.Fig6HottestBlocks(VDSampleOptions{MaxVDs: -1}) })
	mustPanic("AblateCacheDeployment", func() { s.AblateCacheDeployment(VDSampleOptions{MaxVDs: -1}) })
	mustPanic("AblateDispatch", func() { s.AblateDispatch(DispatchOptions{WinSec: -5}) })
}
