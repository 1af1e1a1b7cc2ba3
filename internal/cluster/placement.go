package cluster

import (
	"fmt"
	"math/rand"
)

// SegmentMap is the mutable segment-to-BlockServer mapping ("Seg2BS" in
// Algorithm 1). It is the state the inter-BS load balancer migrates.
type SegmentMap struct {
	// bsOf[seg] is the storage node (BlockServer) currently hosting seg.
	bsOf []StorageNodeID
	// numBS is the number of BlockServers in the storage cluster.
	numBS int
}

// NewSegmentMap creates a mapping of nSegments segments over nBS
// BlockServers, all initially unassigned (-1). Use Place or Assign to fill
// it in.
func NewSegmentMap(nSegments, nBS int) *SegmentMap {
	m := &SegmentMap{bsOf: make([]StorageNodeID, nSegments), numBS: nBS}
	for i := range m.bsOf {
		m.bsOf[i] = -1
	}
	return m
}

// NumBS returns the number of BlockServers.
func (m *SegmentMap) NumBS() int { return m.numBS }

// Len returns the number of segments.
func (m *SegmentMap) Len() int { return len(m.bsOf) }

// BSOf returns the BlockServer hosting seg, or -1 if unassigned.
func (m *SegmentMap) BSOf(seg SegmentID) StorageNodeID { return m.bsOf[seg] }

// Assign places seg on bs, overwriting any previous placement.
func (m *SegmentMap) Assign(seg SegmentID, bs StorageNodeID) {
	if int(bs) < 0 || int(bs) >= m.numBS {
		panic(fmt.Sprintf("cluster: assign segment %d to invalid BS %d (have %d)", seg, bs, m.numBS))
	}
	m.bsOf[seg] = bs
}

// Move migrates seg to dst and returns its previous BlockServer.
func (m *SegmentMap) Move(seg SegmentID, dst StorageNodeID) StorageNodeID {
	prev := m.bsOf[seg]
	m.Assign(seg, dst)
	return prev
}

// Clone returns a deep copy; experiments mutate clones so the baseline
// placement can be reused.
func (m *SegmentMap) Clone() *SegmentMap {
	return &SegmentMap{bsOf: append([]StorageNodeID(nil), m.bsOf...), numBS: m.numBS}
}

// SegmentsOn returns the IDs of segments currently hosted on bs.
func (m *SegmentMap) SegmentsOn(bs StorageNodeID) []SegmentID {
	var out []SegmentID
	for seg, b := range m.bsOf {
		if b == bs {
			out = append(out, SegmentID(seg))
		}
	}
	return out
}

// StorageCluster identifies one balancing domain: a contiguous group of
// BlockServers within a DC. A VD's segments live entirely inside one
// storage cluster (its serving cluster), which is the unit the inter-BS
// balancer operates on.
type StorageCluster struct {
	DC  DCID
	BSs []StorageNodeID // global BS ids, ascending
}

// StorageClusters partitions nBSPerDC BlockServers per DC into groups of
// bsPerCluster (the last group in a DC absorbs any remainder).
func StorageClusters(dcs, nBSPerDC, bsPerCluster int) []StorageCluster {
	if bsPerCluster <= 0 || bsPerCluster > nBSPerDC {
		bsPerCluster = nBSPerDC
	}
	var out []StorageCluster
	for dc := 0; dc < dcs; dc++ {
		base := dc * nBSPerDC
		nClusters := nBSPerDC / bsPerCluster
		for c := 0; c < nClusters; c++ {
			sc := StorageCluster{DC: DCID(dc)}
			hi := (c + 1) * bsPerCluster
			if c == nClusters-1 {
				hi = nBSPerDC // absorb remainder
			}
			for b := c * bsPerCluster; b < hi; b++ {
				sc.BSs = append(sc.BSs, StorageNodeID(base+b))
			}
			out = append(out, sc)
		}
	}
	return out
}

// PlaceSegmentsClustered places every VD's segments inside one storage
// cluster of its DC (chosen at random), spreading the segments of each VD
// across distinct BlockServers of that cluster where possible. It returns
// the placement and the clusters.
func PlaceSegmentsClustered(t *Topology, nBSPerDC, bsPerCluster int, rng *rand.Rand) (*SegmentMap, []StorageCluster) {
	clusters := StorageClusters(t.DCs, nBSPerDC, bsPerCluster)
	if len(clusters) == 0 {
		panic("cluster: no storage clusters")
	}
	// Index clusters by DC for the random pick.
	byDC := make(map[DCID][]int)
	for i := range clusters {
		byDC[clusters[i].DC] = append(byDC[clusters[i].DC], i)
	}
	m := NewSegmentMap(len(t.Segments), t.DCs*nBSPerDC)
	for i := range t.VDs {
		vd := &t.VDs[i]
		dc := t.Nodes[t.VMs[vd.VM].Node].DC
		choices := byDC[dc]
		ci := choices[rng.Intn(len(choices))]
		bss := clusters[ci].BSs
		start := rng.Intn(len(bss))
		stride := 1 + rng.Intn(max(1, len(bss)-1))
		for j, seg := range vd.Segments {
			m.Assign(seg, bss[(start+j*stride)%len(bss)])
		}
	}
	return m, clusters
}
