package core

import (
	"math"
	"strings"
	"testing"
)

func TestStudyPageCacheShiftsDominance(t *testing.T) {
	s := study(t)
	r := s.StudyPageCache()
	if r.VDs == 0 {
		t.Skip("no study VDs")
	}
	if math.IsNaN(r.AppWrRatio) || math.IsNaN(r.DeviceWrRatio) {
		t.Fatalf("NaN ratios: %+v", r)
	}
	// The page cache absorbs hot re-reads, so the EBS-visible hottest block
	// is more write-dominant than the application-level one (§7.2).
	if !(r.DeviceWrRatio > r.AppWrRatio) {
		t.Errorf("device wr_ratio %v not above app %v", r.DeviceWrRatio, r.AppWrRatio)
	}
	if !(r.AbsorbedReadFrac > 0) {
		t.Errorf("cache absorbed nothing: %v", r.AbsorbedReadFrac)
	}
	if !strings.Contains(r.Render(), "Page-cache study") {
		t.Fatal("render missing title")
	}
}
