// Package workload synthesizes an EBS fleet and its traffic. It is the
// stand-in for the paper's gated production datasets (310M traces from ~60k
// VMs / ~140k VDs): the generator draws tenant sizes, VM/VD/QP activity,
// read/write mix, temporal bursts, and LBA hotspots from the heavy-tailed
// families the paper reports, so every downstream analysis sees the same
// distributional *shapes* (spatial CCR skew, enormous read P2A, one-sided
// segments, hottest-block concentration) the production data exhibits.
//
// Everything is deterministic given Config.Seed: entity parameters derive
// from per-entity splitmix64 streams, so series can be regenerated on demand
// without storing them.
package workload

import (
	"errors"
	"fmt"

	"ebslab/internal/cluster"
)

// Config sizes the synthesized fleet; the shapes of what fills it are the
// calibration constants below. Every field must be set — start from
// DefaultConfig or SingleDC — and Generate rejects a config Validate rejects.
type Config struct {
	Seed int64 // master seed; same seed => identical fleet and traffic

	DCs          int // number of data centers (compute+storage cluster pairs)
	NodesPerDC   int // compute nodes per DC
	BSPerDC      int // storage nodes (BlockServers) per DC
	BSPerCluster int // BlockServers per storage cluster (balancing domain)
	Users        int // number of tenants across the fleet
	DurationSec  int // default observation-window length in seconds
}

// DefaultConfig returns a laptop-scale configuration whose statistics mirror
// the paper's shapes. Roughly 3 DCs x 120 nodes x ~4 VMs ~= 1.4k VMs and
// ~3k VDs; the paper's fleet is ~40x larger but statistically similar.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		DCs:          3,
		NodesPerDC:   120,
		BSPerDC:      24,
		BSPerCluster: 6,
		Users:        160,
		DurationSec:  900,
	}
}

// SingleDC is the study-fleet recipe: one data center of `nodes` compute
// nodes over twelve BlockServers in two balancing domains, everything else
// DefaultConfig's. Every front door reaches it through gateway.StudySpec, so
// a CLI run, a gateway study and a dataset export of the same study flags
// observe the identical fleet.
func SingleDC(seed int64, nodes, users, durSec int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.DCs = 1
	cfg.NodesPerDC = nodes
	cfg.BSPerDC = 12
	cfg.BSPerCluster = 6
	cfg.Users = users
	cfg.DurationSec = durSec
	return cfg
}

// Validate reports whether the config is usable.
func (c *Config) Validate() error {
	switch {
	case c.DCs <= 0:
		return errors.New("workload: DCs must be positive")
	case c.NodesPerDC <= 0:
		return errors.New("workload: NodesPerDC must be positive")
	case c.BSPerDC <= 1:
		return errors.New("workload: BSPerDC must be at least 2")
	case c.BSPerCluster < 2 || c.BSPerCluster > c.BSPerDC:
		return fmt.Errorf("workload: BSPerCluster %d outside [2, BSPerDC]", c.BSPerCluster)
	case c.Users <= 0:
		return errors.New("workload: Users must be positive")
	case c.DurationSec <= 0:
		return errors.New("workload: DurationSec must be positive")
	}
	return nil
}

// Fleet-shape calibration constants. Like appProfiles, they are chosen so
// the generated fleet reproduces the paper's shapes, not measured.
const (
	// bareMetalFrac is the fraction of compute nodes hosting exactly one VM.
	bareMetalFrac = 0.10
	// maxVMsPerNode bounds multi-tenant node packing.
	maxVMsPerNode = 6
	// meanVDsPerVM controls the geometric draw of disks per VM (median 2 in
	// the paper's Table 2).
	meanVDsPerVM = 2.2
	// multiQPFrac is the probability a VD gets more than one queue pair.
	multiQPFrac = 0.35
	// tenantZipfS is the Zipf exponent for tenant sizes (larger => a few
	// tenants own most VMs, like the paper's max-9879-VM tenant).
	tenantZipfS = 1.5
	// rateLogSigma is the log-stddev of per-VD mean traffic rates; it is the
	// master knob for spatial skew and is further scaled per app class.
	rateLogSigma = 1.9
)

// capacityTiers are the VD capacity choices in bytes, drawn with
// capacityWeights. Small tiers keep segment counts tractable while still
// spanning multiple segments.
var (
	capacityTiers = []int64{
		40 << 30,  // 40 GiB (system disk)
		64 << 30,  // 64 GiB
		128 << 30, // 128 GiB
		256 << 30, // 256 GiB
	}
	capacityWeights = []float64{0.40, 0.30, 0.20, 0.10}
)

// appProfile captures how one application class (Appendix D / Table 4)
// shapes traffic. The numbers are calibration knobs, not measurements: they
// are chosen so Table 4's orderings reproduce (BigData: top traffic share,
// least skew; Docker/Database: most skew; FileSystem: tiny share, strongly
// skewed write).
type appProfile struct {
	// popWeight is the probability weight of a VM being this class.
	popWeight float64
	// rateScale multiplies the fleet-wide base rate for this class.
	rateScale float64
	// sigmaScale multiplies rateLogSigma: >1 means more spatial skew.
	sigmaScale float64
	// readFrac is the mean fraction of traffic that is reads.
	readFrac float64
	// readBurst and writeBurst are the ON/OFF burst intensities (see
	// trafficParams); reads are far burstier in most classes.
	readBurst, writeBurst burstProfile
	// readIOSize / writeIOSize are mean IO sizes in bytes.
	readIOSize, writeIOSize float64
}

// burstProfile parameterizes the ON/OFF burst process of one direction.
type burstProfile struct {
	onProb    float64 // per-second probability of entering a burst
	meanOnSec float64 // mean burst duration in seconds (geometric)
	paretoXm  float64 // minimum burst magnitude multiplier
	paretoA   float64 // Pareto tail index of burst magnitude (smaller = heavier)
	baseline  float64 // quiescent rate as a fraction of the mean rate
	noise     float64 // lognormal sigma of second-to-second noise
}

// appProfiles indexes profiles by cluster.AppClass. Read burst processes are
// near-idle baselines with rare huge Pareto bursts (that is what produces
// the paper's 10^2..10^4 read P2A); write processes are steadier with
// moderate bursts. sigmaScale ordering follows Table 4's 1%-CCR ordering
// (BigData flattest, Docker most skewed); popWeight x rateScale follows its
// traffic-share column (BigData largest).
var appProfiles = [cluster.NumAppClasses]appProfile{
	cluster.AppBigData: {
		popWeight: 0.22, rateScale: 2.2, sigmaScale: 0.45, readFrac: 0.42,
		readBurst:  burstProfile{onProb: 0.012, meanOnSec: 8, paretoXm: 15, paretoA: 1.3, baseline: 0.15, noise: 0.45},
		writeBurst: burstProfile{onProb: 0.012, meanOnSec: 12, paretoXm: 3, paretoA: 1.7, baseline: 0.55, noise: 0.3},
		readIOSize: 512 << 10, writeIOSize: 256 << 10,
	},
	cluster.AppWebApp: {
		popWeight: 0.24, rateScale: 0.35, sigmaScale: 0.95, readFrac: 0.15,
		readBurst:  burstProfile{onProb: 0.008, meanOnSec: 3, paretoXm: 60, paretoA: 1.05, baseline: 0.03, noise: 0.6},
		writeBurst: burstProfile{onProb: 0.010, meanOnSec: 6, paretoXm: 4, paretoA: 1.5, baseline: 0.45, noise: 0.4},
		readIOSize: 16 << 10, writeIOSize: 8 << 10,
	},
	cluster.AppMiddleware: {
		popWeight: 0.18, rateScale: 1.2, sigmaScale: 1.05, readFrac: 0.30,
		readBurst:  burstProfile{onProb: 0.009, meanOnSec: 4, paretoXm: 50, paretoA: 1.1, baseline: 0.04, noise: 0.5},
		writeBurst: burstProfile{onProb: 0.012, meanOnSec: 8, paretoXm: 3.5, paretoA: 1.6, baseline: 0.5, noise: 0.35},
		readIOSize: 64 << 10, writeIOSize: 32 << 10,
	},
	cluster.AppFileSystem: {
		popWeight: 0.06, rateScale: 0.10, sigmaScale: 1.15, readFrac: 0.55,
		readBurst:  burstProfile{onProb: 0.006, meanOnSec: 8, paretoXm: 40, paretoA: 1.15, baseline: 0.05, noise: 0.55},
		writeBurst: burstProfile{onProb: 0.005, meanOnSec: 10, paretoXm: 40, paretoA: 1.05, baseline: 0.05, noise: 0.5},
		readIOSize: 128 << 10, writeIOSize: 128 << 10,
	},
	cluster.AppDatabase: {
		popWeight: 0.17, rateScale: 1.5, sigmaScale: 1.25, readFrac: 0.28,
		readBurst:  burstProfile{onProb: 0.007, meanOnSec: 4, paretoXm: 80, paretoA: 1.0, baseline: 0.03, noise: 0.6},
		writeBurst: burstProfile{onProb: 0.012, meanOnSec: 10, paretoXm: 5, paretoA: 1.4, baseline: 0.45, noise: 0.4},
		readIOSize: 16 << 10, writeIOSize: 16 << 10,
	},
	cluster.AppDocker: {
		popWeight: 0.13, rateScale: 1.5, sigmaScale: 1.45, readFrac: 0.32,
		readBurst:  burstProfile{onProb: 0.006, meanOnSec: 3, paretoXm: 100, paretoA: 0.95, baseline: 0.02, noise: 0.7},
		writeBurst: burstProfile{onProb: 0.010, meanOnSec: 7, paretoXm: 6, paretoA: 1.35, baseline: 0.4, noise: 0.45},
		readIOSize: 32 << 10, writeIOSize: 64 << 10,
	},
}
