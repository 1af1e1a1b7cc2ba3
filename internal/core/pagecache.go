package core

import (
	"fmt"
	"math"
	"strings"

	"ebslab/internal/cache"
	"ebslab/internal/guestcache"
	"ebslab/internal/stats"
)

// PageCacheStudy validates the §7.2 mechanism from first principles: the
// application-level stream of a hot disk is read-heavy, but running it
// through a guest page cache absorbs the hot-range re-reads, so the
// EBS-visible hottest block turns write-dominant — which is what the
// static HotReadFrac in the workload model encodes.
type PageCacheStudy struct {
	VDs int
	// Medians across study VDs of the hottest-block wr_ratio (bytes), at
	// the application level and after the page cache.
	AppWrRatio, DeviceWrRatio float64
	// AbsorbedReadFrac is the median fraction of application reads the
	// cache absorbed.
	AbsorbedReadFrac float64
	BlockMiB         int64
}

// StudyPageCache replays 16 study VDs' application-level streams (about
// 10000 events each) through a guest page cache with a 2 s flush interval
// and measures the dominance of the hottest 256 MiB block before and after.
func (s *Study) StudyPageCache() PageCacheStudy {
	const (
		maxVDs         = 16
		maxEventsPerVD = 10000
		blockMiB       = 256
		blockSize      = blockMiB << 20
	)
	cfg := guestcache.DefaultConfig()
	cfg.FlushIntervalUS = 2_000_000
	var appRatios, devRatios, absorbed []float64
	vds := s.studyVDs(maxVDs)
	for _, vd := range vds {
		app := s.vdAccesses(vd, maxEventsPerVD, s.Fleet.GenAppEvents)
		if len(app) < 100 {
			continue
		}
		device, st := guestcache.Filter(cfg, app)

		capBytes := s.Fleet.Topology.VDs[vd].Capacity
		appRep := analyzeIOs(app, capBytes, blockSize)
		devRep := analyzeIOs(device, capBytes, blockSize)
		if !math.IsNaN(appRep) {
			appRatios = append(appRatios, appRep)
		}
		if !math.IsNaN(devRep) {
			devRatios = append(devRatios, devRep)
		}
		if st.AppReads > 0 {
			absorbed = append(absorbed, float64(st.ReadHits)/float64(st.AppReads))
		}
	}
	return PageCacheStudy{
		VDs:              len(vds),
		AppWrRatio:       stats.Median(appRatios),
		DeviceWrRatio:    stats.Median(devRatios),
		AbsorbedReadFrac: stats.Median(absorbed),
		BlockMiB:         blockMiB,
	}
}

// analyzeIOs computes the byte-weighted wr_ratio of the hottest block of an
// IO stream.
func analyzeIOs(accesses []cache.Access, capBytes, blockSize int64) float64 {
	if len(accesses) == 0 {
		return math.NaN()
	}
	rep := cache.AnalyzeBlocks(accesses, capBytes, blockSize)
	if rep.Hottest < 0 {
		return math.NaN()
	}
	// Byte-weighted ratio over the hottest block.
	var w, r float64
	for _, a := range accesses {
		if a.Offset/blockSize != rep.Hottest {
			continue
		}
		if a.Write {
			w += float64(a.Size)
		} else {
			r += float64(a.Size)
		}
	}
	return stats.WrRatio(w, r)
}

// Render prints the page-cache study.
func (r PageCacheStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Page-cache study (%d MiB blocks, %d VDs)\n", r.BlockMiB, r.VDs)
	fmt.Fprintf(&b, "  hottest-block wr_ratio at application level: %+.2f\n", r.AppWrRatio)
	fmt.Fprintf(&b, "  hottest-block wr_ratio EBS-visible:          %+.2f\n", r.DeviceWrRatio)
	fmt.Fprintf(&b, "  median fraction of app reads absorbed:        %.1f%%\n", 100*r.AbsorbedReadFrac)
	return b.String()
}
