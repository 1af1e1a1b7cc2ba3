package workload

import (
	"fmt"
	"math"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/xrand"
)

// Fleet is a generated topology plus the per-entity traffic models needed to
// synthesize series and IO events on demand.
type Fleet struct {
	Cfg      Config
	Topology *cluster.Topology
	Seg2BS   *cluster.SegmentMap

	// StorageClusters are the balancing domains (groups of BlockServers
	// within a DC).
	StorageClusters []cluster.StorageCluster

	// Models holds one traffic model per VD, indexed by VDID.
	Models []VDModel

	// Cold-region Zipf weight vectors, lazily built and shared (read-only)
	// across every disk with the same region count.
	zipfMu    sync.Mutex
	zipfCache map[int][]float64
}

// coldZipfWeights returns the shared rank-ordered Zipf(coldZipfS) weight
// vector for n cold regions. The returned slice is cached on the Fleet and
// must be treated as read-only.
func (f *Fleet) coldZipfWeights(n int) []float64 {
	f.zipfMu.Lock()
	defer f.zipfMu.Unlock()
	if w, ok := f.zipfCache[n]; ok {
		return w
	}
	if f.zipfCache == nil {
		f.zipfCache = make(map[int][]float64)
	}
	w := zipfWeights(n, coldZipfS)
	f.zipfCache[n] = w
	return w
}

// VDModel is the per-virtual-disk traffic model. All rates are bytes/s.
type VDModel struct {
	// MeanReadBps and MeanWriteBps are long-run mean rates; actual traffic is
	// the burst-modulated series around these means.
	MeanReadBps  float64
	MeanWriteBps float64

	// ReadIOSize / WriteIOSize are mean IO sizes in bytes.
	ReadIOSize  float64
	WriteIOSize float64

	// QPWeightsRead / QPWeightsWrite split VD traffic across its queue pairs
	// (indexed like Topology.VDs[vd].QPs). Write splits are more concentrated
	// than read splits (§4.2, VD-to-QP CoV 0.81 vs 0.39).
	QPWeightsRead  []float64
	QPWeightsWrite []float64

	// SegWeightsRead / SegWeightsWrite split VD traffic across its segments.
	// Independently drawn, so hot read and hot write segments rarely
	// coincide, reproducing the read- xor write-dominant segments of §6.2.2.
	SegWeightsRead  []float64
	SegWeightsWrite []float64

	// Burst processes per direction.
	ReadBurst  burstProfile
	WriteBurst burstProfile

	// LBA hotspot model (§7): a contiguous hot range absorbing HotAccessFrac
	// of write IOs; the hot writer streams sequentially through it. Reads to
	// the hot range are mostly absorbed by the guest page cache before they
	// reach EBS, so HotReadFrac is usually far smaller (§7.2: 93.9% of
	// hottest blocks are write-dominant, only 5.5% read-dominant).
	HotspotOffset  int64   // start of the hot range
	HotspotLen     int64   // length of the hot range in bytes
	HotAccessFrac  float64 // fraction of write IOs landing in the hot range
	HotReadFrac    float64 // fraction of read IOs landing in the hot range
	HotWriteSeq    bool    // hot writes advance sequentially (LSM/journal style)
	ColdZipfBlocks int     // number of Zipf-weighted cold regions
}

// MeanBps returns the summed mean rate of the model.
func (m *VDModel) MeanBps() float64 { return m.MeanReadBps + m.MeanWriteBps }

// Generate synthesizes a fleet from cfg. The same cfg (including Seed)
// always produces an identical fleet.
func Generate(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := acquireRand(cfg.Seed, tagFleet, 0)
	defer rng.Release()
	top := &cluster.Topology{DCs: cfg.DCs, Users: cfg.Users}

	tenantW := zipfWeights(cfg.Users, tenantZipfS)
	appW := make([]float64, cluster.NumAppClasses)
	for i := range appW {
		appW[i] = appProfiles[i].popWeight
	}
	wtChoices := []int{2, 4, 8}
	wtWeights := []float64{0.3, 0.5, 0.2}

	nNodes := cfg.DCs * cfg.NodesPerDC
	for n := 0; n < nNodes; n++ {
		node := cluster.ComputeNode{
			ID:        cluster.NodeID(n),
			DC:        cluster.DCID(n / cfg.NodesPerDC),
			WorkerNum: wtChoices[pickWeighted(rng, wtWeights)],
			BareMetal: rng.Float64() < bareMetalFrac,
		}
		nVMs := 1
		if !node.BareMetal {
			nVMs = 1 + rng.Intn(maxVMsPerNode)
		}
		for v := 0; v < nVMs; v++ {
			vmID := cluster.VMID(len(top.VMs))
			vm := cluster.VM{
				ID:   vmID,
				User: cluster.UserID(pickWeighted(rng, tenantW)),
				Node: node.ID,
				App:  cluster.AppClass(pickWeighted(rng, appW)),
			}
			nVDs := xrand.GeometricAtLeast1(rng, meanVDsPerVM)
			if nVDs > 16 {
				nVDs = 16
			}
			// Bare-metal Type I nodes often mount a single low-demand disk.
			if node.BareMetal && rng.Float64() < 0.6 {
				nVDs = 1
			}
			for d := 0; d < nVDs; d++ {
				vdID := cluster.VDID(len(top.VDs))
				capBytes := capacityTiers[pickWeighted(rng, capacityWeights)]
				vd := cluster.VD{
					ID:       vdID,
					VM:       vmID,
					Capacity: capBytes,
				}
				vd.ThroughputCap, vd.IOPSCap = capsForCapacity(capBytes)
				nQPs := 1
				if rng.Float64() < multiQPFrac {
					nQPs = []int{2, 4, 8}[pickWeighted(rng, []float64{0.5, 0.35, 0.15})]
				}
				for q := 0; q < nQPs; q++ {
					qpID := cluster.QPID(len(top.QPs))
					top.QPs = append(top.QPs, cluster.QP{ID: qpID, VD: vdID})
					vd.QPs = append(vd.QPs, qpID)
				}
				nSegs := int((capBytes + cluster.SegmentSize - 1) / cluster.SegmentSize)
				for s := 0; s < nSegs; s++ {
					segID := cluster.SegmentID(len(top.Segments))
					top.Segments = append(top.Segments, cluster.Segment{ID: segID, VD: vdID, Index: s})
					vd.Segments = append(vd.Segments, segID)
				}
				top.VDs = append(top.VDs, vd)
				vm.VDs = append(vm.VDs, vdID)
			}
			top.VMs = append(top.VMs, vm)
			node.VMs = append(node.VMs, vmID)
		}
		top.Nodes = append(top.Nodes, node)
	}

	top.StorageNodes = cfg.DCs * cfg.BSPerDC
	if err := top.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated topology invalid: %w", err)
	}

	place := acquireRand(cfg.Seed, tagPlacement, 0)
	seg2bs, storClusters := cluster.PlaceSegmentsClustered(top, cfg.BSPerDC, cfg.BSPerCluster, place.Rand)
	place.Release()
	f := &Fleet{
		Cfg:             cfg,
		Topology:        top,
		Seg2BS:          seg2bs,
		StorageClusters: storClusters,
	}
	f.Models = buildModels(cfg, top)
	return f, nil
}

// capsForCapacity derives the subscription caps of a VD from its capacity,
// following the tiered shape of public EBS offerings: bigger disks buy more
// throughput and IOPS, with floors and ceilings.
func capsForCapacity(capBytes int64) (tputBps, iops float64) {
	gib := float64(capBytes) / float64(1<<30)
	tputBps = 100e6 + gib*0.5e6
	if tputBps > 350e6 {
		tputBps = 350e6
	}
	iops = 1800 + gib*30
	if iops > 50000 {
		iops = 50000
	}
	return tputBps, iops
}

// buildModels draws per-VD traffic models. VM-level activity is drawn once
// per VM (heavy-tailed), then split across the VM's disks with an extremely
// skewed Dirichlet so the system disk idles while a data disk is hot
// (§4.2, VM-to-VD CoV ~= 0.97).
func buildModels(cfg Config, top *cluster.Topology) []VDModel {
	models := make([]VDModel, len(top.VDs))
	// Fleet-wide base rate: chosen so a typical active VM moves a few MB/s.
	const fleetBase = 4e6

	for vmIdx := range top.VMs {
		vm := &top.VMs[vmIdx]
		prof := appProfiles[vm.App]
		vmRng := acquireRand(cfg.Seed, tagVDModel, uint64(vmIdx))

		sigma := rateLogSigma * prof.sigmaScale
		// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); offset mu so the
		// class mean stays rateScale*fleetBase regardless of sigma.
		mu := -sigma * sigma / 2
		vmRate := fleetBase * prof.rateScale * lognormal(vmRng, mu, sigma)

		vdW := dirichletLike(vmRng, len(vm.VDs), 0.12)
		// LBA hotness correlates within a VM: a hot database VM tends to
		// have hot blocks on all of its disks. This correlation is what
		// concentrates cacheable VDs on few compute nodes (Fig 7d).
		vmHotness := betaLike(vmRng, 0.22, 0.7)
		for i, vdID := range vm.VDs {
			vd := &top.VDs[vdID]
			m := &models[vdID]

			total := vmRate * vdW[i] * float64(len(vm.VDs))
			// Per-VD read fraction around the class mean, with enough spread
			// that many disks are strongly one-sided.
			rf := betaLike(vmRng, prof.readFrac, 0.65)
			m.MeanReadBps = total * rf
			m.MeanWriteBps = total * (1 - rf)
			// Reads concentrate on fewer actors than writes (Observation 2):
			// an extra mean-one heavy-tail factor widens the read CCR above
			// the write CCR.
			const readSkewSigma = 0.9
			m.MeanReadBps *= lognormal(vmRng, -readSkewSigma*readSkewSigma/2, readSkewSigma)

			m.ReadIOSize = prof.readIOSize * lognormal(vmRng, 0, 0.3)
			m.WriteIOSize = prof.writeIOSize * lognormal(vmRng, 0, 0.3)

			m.QPWeightsRead = dirichletLike(vmRng, len(vd.QPs), 1.2)
			m.QPWeightsWrite = dirichletLike(vmRng, len(vd.QPs), 0.15)
			// Segment concentration varies by disk: some disks hammer one
			// segment (journals, LSM levels), others spread evenly (big
			// scans). The mixture is what lets some storage clusters
			// balance and stay balanced (§6.1.1) while others ping-pong a
			// dominant segment.
			segShape := []float64{0.15, 0.6, 2.5}[pickWeighted(vmRng, []float64{0.35, 0.40, 0.25})]
			m.SegWeightsRead = dirichletLike(vmRng, len(vd.Segments), segShape)
			m.SegWeightsWrite = dirichletLike(vmRng, len(vd.Segments), segShape)

			m.ReadBurst = jitterBurst(vmRng, prof.readBurst)
			m.WriteBurst = jitterBurst(vmRng, prof.writeBurst)

			// LBA hotspot: center it in the write-hottest segment so hot
			// blocks are write-dominant (§7.2).
			hotSeg := argmax(m.SegWeightsWrite)
			segStart := int64(hotSeg) * cluster.SegmentSize
			// Hot ranges are small: mostly 64-128 MiB (journals, LSM WALs).
			hotLen := int64(64<<20) << uint(pickWeighted(vmRng, []float64{0.5, 0.3, 0.15, 0.05}))
			if segStart+hotLen > vd.Capacity {
				hotLen = vd.Capacity - segStart
			}
			m.HotspotOffset = segStart
			m.HotspotLen = hotLen
			m.HotAccessFrac = clamp01(0.05 + 0.9*betaLike(vmRng, vmHotness, 0.25))
			// The guest page cache absorbs most repeated reads of the hot
			// range before they reach EBS; a small minority of disks (cache-
			// bypassing scans, cold restarts) stay read-hot.
			if vmRng.Float64() < 0.06 {
				m.HotReadFrac = m.HotAccessFrac
			} else {
				m.HotReadFrac = 0.15 * m.HotAccessFrac
			}
			m.HotWriteSeq = vmRng.Float64() < 0.8
			m.ColdZipfBlocks = 64

			// The retired slot model's draws: this VM's later draws depend on them.
			for range 4 {
				vmRng.Float64()
			}
		}
		vmRng.Release()
	}
	return models
}

// jitterBurst perturbs a class burst profile per VD so no two disks burst
// identically.
func jitterBurst(rng *xrand.Rand, b burstProfile) burstProfile {
	j := b
	j.onProb *= math.Exp(0.5 * rng.NormFloat64())
	j.meanOnSec *= math.Exp(0.3 * rng.NormFloat64())
	j.paretoXm *= math.Exp(0.3 * rng.NormFloat64())
	if j.meanOnSec < 1 {
		j.meanOnSec = 1
	}
	return j
}

// betaLike draws from Beta(mean*c, (1-mean)*c) where the concentration c
// shrinks as spread grows: larger spread pushes mass toward 0 and 1, which
// is how many disks end up strongly read- or write-dominant.
func betaLike(rng *xrand.Rand, mean, spread float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean >= 1 {
		return 1
	}
	c := 2*(1/spread-1) + 0.2
	a := gammaDraw(rng, mean*c)
	b := gammaDraw(rng, (1-mean)*c)
	if a+b == 0 {
		return mean
	}
	return a / (a + b)
}

// clamp01 clamps x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// argmax returns the index of the largest element (first on ties); it
// panics on empty input.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
