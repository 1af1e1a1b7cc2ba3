package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ebslab/internal/cache"
	"ebslab/internal/cluster"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// BlockSizesMiB are the block sizes the §7 analyses sweep.
var BlockSizesMiB = []int64{64, 256, 1024, 2048}

// studyVDs returns up to k VDs for the event-driven cache analyses. The
// paper analyzes every VD; at our scale we take a stratified sample across
// the traffic spectrum (every n-th VD of the traffic-sorted list, busiest
// first), restricted to disks active enough to yield events. Sampling only
// the busiest would bias toward read-burst-dominated disks.
func (s *Study) studyVDs(k int) []cluster.VDID {
	t := s.ensureTotals()
	m := s.Fleet.Models
	type vt struct {
		vd cluster.VDID
		v  float64
	}
	var all []vt
	for vd := range s.Fleet.Topology.VDs {
		ops := t.vdRead[vd]/m[vd].ReadIOSize + t.vdWrite[vd]/m[vd].WriteIOSize
		if ops < 500 {
			continue
		}
		all = append(all, vt{cluster.VDID(vd), t.vdRead[vd] + t.vdWrite[vd]})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if k <= 0 || k > len(all) {
		k = len(all)
	}
	out := make([]cluster.VDID, 0, k)
	stride := len(all) / k
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(all) && len(out) < k; i += stride {
		out = append(out, all[i].vd)
	}
	return out
}

// vdAccesses draws a VD's IO stream with gen — Fleet.GenEvents, or
// GenAppEvents for the stream before the guest page cache — capped near
// maxEvents by choosing a sampling rate from the expected op count.
func (s *Study) vdAccesses(vd cluster.VDID, maxEvents int, gen func(cluster.VDID, int, int, func(workloadEvent))) []cache.Access {
	t := s.ensureTotals()
	m := &s.Fleet.Models[vd]
	expOps := t.vdRead[vd]/m.ReadIOSize + t.vdWrite[vd]/m.WriteIOSize
	sampleEvery := 1
	if maxEvents > 0 && expOps > float64(maxEvents) {
		sampleEvery = int(math.Ceil(expOps / float64(maxEvents)))
	}
	var out []cache.Access
	gen(vd, s.Dur, sampleEvery, func(ev workloadEvent) {
		out = append(out, cache.Access{
			TimeUS: ev.TimeUS, Offset: ev.Offset, Size: ev.Size,
			Write: ev.Op == trace.OpWrite,
		})
	})
	return out
}

// Fig6Result holds the hottest-block statistics of Figure 6 for each block
// size.
type Fig6Result struct {
	BlockMiB []int64
	// Medians across study VDs.
	MedianAccessRate []float64 // Fig 6(a)
	MedianBlockShare []float64 // Fig 6(b)
	// Fractions of hottest blocks that are write- / read-dominant (Fig 6c).
	WriteDomFrac, ReadDomFrac []float64
	// MeanHotRate is the mean Fig 6(d) hot rate.
	MeanHotRate []float64
	VDs         int
}

// Fig6HottestBlocks analyzes LBA hotspots over the busiest maxVDs disks.
func (s *Study) Fig6HottestBlocks(opt VDSampleOptions) Fig6Result {
	mustOpt(opt.Validate())
	maxVDs, maxEventsPerVD := opt.MaxVDs, opt.MaxEventsPerVD
	if maxVDs <= 0 {
		maxVDs = 48
	}
	if maxEventsPerVD <= 0 {
		maxEventsPerVD = 20000
	}
	vds := s.studyVDs(maxVDs)
	res := Fig6Result{BlockMiB: BlockSizesMiB, VDs: len(vds)}
	windowUS := int64(s.Dur) * 1_000_000 / 15 // 15 sub-windows per window
	for _, mib := range BlockSizesMiB {
		blockSize := mib << 20
		var rates, shares, hotRates []float64
		var wd, rd, counted int
		for _, vd := range vds {
			accesses := s.vdAccesses(vd, maxEventsPerVD, s.Fleet.GenEvents)
			capBytes := s.Fleet.Topology.VDs[vd].Capacity
			rep := cache.AnalyzeBlocks(accesses, capBytes, blockSize)
			if math.IsNaN(rep.AccessRate) {
				continue
			}
			counted++
			rates = append(rates, rep.AccessRate)
			shares = append(shares, rep.BlockShare)
			if rep.WrRatio > 1.0/3 {
				wd++
			}
			if rep.WrRatio < -1.0/3 {
				rd++
			}
			hr := cache.HotRate(accesses, blockSize, rep.Hottest, rep.AccessRate, windowUS)
			hotRates = appendNotNaN(hotRates, hr)
		}
		res.MedianAccessRate = append(res.MedianAccessRate, stats.Median(rates))
		res.MedianBlockShare = append(res.MedianBlockShare, stats.Median(shares))
		if counted > 0 {
			res.WriteDomFrac = append(res.WriteDomFrac, float64(wd)/float64(counted))
			res.ReadDomFrac = append(res.ReadDomFrac, float64(rd)/float64(counted))
		} else {
			res.WriteDomFrac = append(res.WriteDomFrac, math.NaN())
			res.ReadDomFrac = append(res.ReadDomFrac, math.NaN())
		}
		res.MeanHotRate = append(res.MeanHotRate, stats.Mean(hotRates))
	}
	return res
}

// Render prints Fig 6.
func (r Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6: hottest-block statistics over %d busiest VDs\n", r.VDs)
	fmt.Fprintf(&b, "  %-9s %-12s %-12s %-12s %-12s %s\n",
		"block", "access rate", "LBA share", "write-dom", "read-dom", "hot rate")
	for i, mib := range r.BlockMiB {
		fmt.Fprintf(&b, "  %4d MiB  %10.1f%%  %10.1f%%  %10.1f%%  %10.1f%%  %.1f%%\n",
			mib, 100*r.MedianAccessRate[i], 100*r.MedianBlockShare[i],
			100*r.WriteDomFrac[i], 100*r.ReadDomFrac[i], 100*r.MeanHotRate[i])
	}
	return b.String()
}
