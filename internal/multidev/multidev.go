// Package multidev simulates a kernel on K compute devices with private
// L2 caches joined by an interconnect — the multi-tile accelerator shape
// (4/16/64-CU GPUs, chiplet CPUs) the paper's single flat L2 abstracts
// away. The matrix's rows are split across devices by a partitioner
// (internal/partition row blocks, METIS, or RABBIT communities); each
// device executes its rows' accesses against its own cachesim instance
// (the flat L2 capacity divided K ways — constant silicon), and every
// miss on a line homed on another device is classified as an
// inter-device transfer. The accesses come from the kernel's one trace
// generator, the flat path's own, which announces each row before the
// accesses it issues; the owner vector maps that row to its device. The
// reported per-device traffic, remote-traffic fraction, and load
// imbalance answer the question the flat model cannot: does community
// reordering still help once the matrix is partitioned across executors?
//
// K = 1 is exactly the flat path: one simulator with the original
// geometry (cachesim.Config.Split(1) is the identity), every line local,
// and ProjectTime reducing to gpumodel.ProjectTime — pinned bit-identical
// by TestMultiDevFlatIdentity over the experiment corpus.
//
//repro:deterministic
package multidev

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/gpumodel"
	"repro/internal/trace"
)

// Config describes the simulated multi-device platform.
type Config struct {
	// Devices is the number of compute tiles K; each runs one private
	// cache. Must be positive.
	Devices int
	// L2 is the per-device private cache geometry (already split, e.g.
	// gpumodel.Device.PerDeviceL2 or cachesim.Config.Split).
	L2 cachesim.Config
	// Impl selects the cache implementation (fast or reference oracle).
	Impl cachesim.Impl
}

// ForDevice derives the multi-device simulation config from a modeled
// device: K tiles, each owning 1/K of the flat L2 capacity.
func ForDevice(d gpumodel.Device, impl cachesim.Impl) Config {
	return Config{Devices: d.NumDevices(), L2: d.PerDeviceL2(), Impl: impl}
}

// DeviceStats is one device's view of the run: its private-cache
// statistics plus the remote classification of its accesses.
type DeviceStats struct {
	cachesim.Stats
	// RemoteAccesses counts this device's accesses to lines homed on
	// another device (hit or miss).
	RemoteAccesses int64
	// RemoteMisses counts the remote accesses that missed the private
	// cache — each one an inter-device transfer of a full line.
	RemoteMisses int64
}

// RemoteTrafficBytes returns the bytes this device pulled over the
// interconnect from other devices' memory.
func (d DeviceStats) RemoteTrafficBytes() int64 { return d.RemoteMisses * d.LineBytes }

// LocalTrafficBytes returns the bytes this device filled from its own
// memory partition.
func (d DeviceStats) LocalTrafficBytes() int64 {
	return (d.Misses - d.RemoteMisses) * d.LineBytes
}

// Stats aggregates a multi-device simulation: one entry per device, in
// device order.
type Stats struct {
	// Devices holds each tile's statistics; len(Devices) == K.
	Devices []DeviceStats
}

// Flat folds the per-device statistics into a single cachesim.Stats, the
// view a flat-L2 analysis would take of the same run. At K=1 this is
// bit-identical to the flat simulation's Stats.
func (s Stats) Flat() cachesim.Stats {
	var out cachesim.Stats
	for _, d := range s.Devices {
		out.Accesses += d.Accesses
		out.Hits += d.Hits
		out.Misses += d.Misses
		out.Compulsory += d.Compulsory
		out.Evictions += d.Evictions
		out.DeadFills += d.DeadFills
		out.LineBytes = d.LineBytes
	}
	return out
}

// TotalTrafficBytes returns the DRAM traffic summed over devices.
func (s Stats) TotalTrafficBytes() int64 {
	var total int64
	for _, d := range s.Devices {
		total += d.TrafficBytes()
	}
	return total
}

// RemoteTrafficBytes returns the inter-device transfer volume summed
// over devices.
func (s Stats) RemoteTrafficBytes() int64 {
	var total int64
	for _, d := range s.Devices {
		total += d.RemoteTrafficBytes()
	}
	return total
}

// RemoteFraction returns the fraction of DRAM traffic that crossed the
// interconnect (0 for a traffic-free run) — the partition quality metric
// at cache-line granularity.
func (s Stats) RemoteFraction() float64 {
	total := s.TotalTrafficBytes()
	if total == 0 {
		return 0
	}
	return float64(s.RemoteTrafficBytes()) / float64(total)
}

// MaxDeviceTrafficBytes returns the busiest device's DRAM traffic.
func (s Stats) MaxDeviceTrafficBytes() int64 {
	var max int64
	for _, d := range s.Devices {
		if t := d.TrafficBytes(); t > max {
			max = t
		}
	}
	return max
}

// MeanDeviceTrafficBytes returns the average per-device DRAM traffic.
func (s Stats) MeanDeviceTrafficBytes() float64 {
	if len(s.Devices) == 0 {
		return 0
	}
	return float64(s.TotalTrafficBytes()) / float64(len(s.Devices))
}

// Imbalance returns max/mean per-device traffic — 1.0 is a perfect
// split, K is one device doing all the work. A traffic-free run reports
// 1.0 (trivially balanced).
func (s Stats) Imbalance() float64 {
	mean := s.MeanDeviceTrafficBytes()
	if mean == 0 {
		return 1
	}
	return float64(s.MaxDeviceTrafficBytes()) / mean
}

// Simulate runs the kernel's generator against K private caches: each
// access goes to the cache of the device that owns the row issuing it,
// and a miss on a line homed elsewhere counts as an inter-device transfer.
// Device IDs outside [0, K) panic — owner vectors are produced by
// internal/partition, so a violation is a programming error.
func Simulate(cfg Config, ot trace.OwnedTrace) Stats {
	k := cfg.Devices
	if k <= 0 {
		panic(fmt.Sprintf("multidev: Simulate with %d devices", cfg.Devices))
	}
	sims := make([]cachesim.Simulator, k)
	for i := range sims {
		sims[i] = cachesim.NewSimulator(cfg.L2, cfg.Impl)
	}
	out := Stats{Devices: make([]DeviceStats, k)}
	// Each announced row selects its owner's simulator and counters for
	// the accesses that follow.
	var (
		dev int32
		sim cachesim.Simulator
		ds  *DeviceStats
	)
	ot.Stream(func(row int32) {
		dev = ot.Owner[row]
		sim, ds = sims[dev], &out.Devices[dev]
	}, func(line int64) {
		hit := sim.Access(line)
		if ot.Home[line] != dev {
			ds.RemoteAccesses++
			if !hit {
				ds.RemoteMisses++
			}
		}
	})
	for i := range sims {
		out.Devices[i].Stats = sims[i].Finalize()
	}
	return out
}

// ProjectTime converts multi-device statistics into a projected kernel
// run time: each device moves its local traffic at its 1/K bandwidth
// share, pays d.RemotePenalty per remote byte (interconnect hops are
// slower than local DRAM), and is derated by its own miss fraction
// exactly as gpumodel.ProjectTime derates the flat device; the kernel
// finishes when the slowest device does. At K=1 with no remote lines
// this computes gpumodel.ProjectTime(d, s.Flat()) bit for bit.
func ProjectTime(d gpumodel.Device, s Stats) float64 {
	k := len(s.Devices)
	if k == 0 {
		return 0
	}
	bw := d.EffectiveBandwidth / float64(k)
	penalty := d.RemotePenalty
	if penalty <= 0 {
		penalty = 1
	}
	var worst float64
	for _, ds := range s.Devices {
		t := (float64(ds.LocalTrafficBytes()) + penalty*float64(ds.RemoteTrafficBytes())) / bw
		if ds.Accesses > 0 {
			missFraction := float64(ds.Misses) / float64(ds.Accesses)
			t = t * (1 + d.FineGrainPenalty*missFraction)
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// NormalizedRuntime returns the multi-device projected run time divided
// by the flat single-device ideal time — the Figure 3 metric extended
// with a device count axis. Values below 1.0 mean the K-way split beats
// the flat ideal (aggregate private caches plus partitioned bandwidth
// outrun one big L2); large values mean interconnect traffic or
// imbalance ate the parallelism.
func NormalizedRuntime(d gpumodel.Device, s Stats, k gpumodel.Kernel, n, nnz int64) float64 {
	return ProjectTime(d, s) / gpumodel.IdealTime(d, k, n, nnz)
}
