// Package gpumodel holds the performance model of the evaluation platform:
// device specifications (Table I), the analytic compulsory-traffic and
// ideal-run-time formulas of Section IV-B, and the projection from
// simulated cache statistics to kernel run time.
//
// The paper measures on an NVIDIA A6000 and validates an L2 cache simulator
// against it (within 4%, Section VI-B); all of this repository's
// experiments run on that simulator path. A6000() carries the real
// device's numbers; SimDevice()/SimDeviceSmall() are proportionally scaled
// variants matched to the scaled corpus (see internal/gen), preserving the
// footprint-to-capacity ratios that every reported metric depends on.
package gpumodel

import (
	"fmt"

	"repro/internal/cachesim"
)

// Device describes an evaluation platform.
type Device struct {
	// Name labels the platform in reports.
	Name string
	// PeakBandwidth is the theoretical DRAM bandwidth in bytes/second
	// (768 GB/s for the A6000).
	PeakBandwidth float64
	// EffectiveBandwidth is the achievable bandwidth in bytes/second as a
	// BabelStream-style microbenchmark measures it (672 GB/s on the
	// A6000); ideal run time divides compulsory traffic by this.
	EffectiveBandwidth float64
	// PeakFlops is single-precision peak compute in FLOP/s.
	PeakFlops float64
	// L2 is the last-level cache geometry.
	L2 cachesim.Config
	// MemoryBytes is main-memory capacity (the Section III selection rule
	// caps nonzero counts against it).
	MemoryBytes int64
	// FineGrainPenalty scales the run-time cost of irregular misses: see
	// ProjectTime. Calibrated so the run-time/traffic relationship matches
	// the spread the paper reports in Figure 2's caption (traffic 3.36× →
	// run time 6.21× for RANDOM; 1.27× → 1.54× for RABBIT).
	FineGrainPenalty float64
	// Devices is the number of compute tiles the device is modeled as: 1
	// is the paper's flat single-L2 platform; K > 1 splits the L2 into K
	// private caches (PerDeviceL2) joined by an interconnect, the shape
	// multi-CU accelerator models (e.g. akkalat's 4/16/64-CU GPUs) take.
	// internal/multidev consumes this; every flat-path formula in this
	// package ignores it. Zero means 1.
	Devices int
	// RemotePenalty is the interconnect cost multiplier of a remote line:
	// a miss on a line homed on another device moves across the
	// inter-device fabric at 1/RemotePenalty of DRAM transfer speed, so
	// multidev.ProjectTime charges it RemotePenalty× the bytes. 4 models
	// a mesh hop costing a few times a local DRAM access; 1 models a free
	// interconnect (traffic-only accounting). Ignored when Devices <= 1.
	RemotePenalty float64
}

const gb = 1e9

// A6000 returns the paper's evaluation platform (Table I): 768 GB/s peak
// DRAM bandwidth (672 GB/s achievable per BabelStream), 38.7 TFLOPS
// single-precision, 6 MB 16-way L2 with 128-byte lines, 48 GB of memory.
func A6000() Device {
	return Device{
		Name:               "NVIDIA A6000",
		PeakBandwidth:      768 * gb,
		EffectiveBandwidth: 672 * gb,
		PeakFlops:          38.7e12,
		L2:                 cachesim.Config{CapacityBytes: 6 << 20, LineBytes: 128, Ways: 16},
		MemoryBytes:        48 << 30,
		FineGrainPenalty:   1.0,
		Devices:            1,
		RemotePenalty:      4.0,
	}
}

// WithDevices returns a copy of the device remodeled as k compute tiles:
// Devices is set to k while every aggregate resource (total L2 capacity,
// bandwidths, compute, memory) is unchanged, so K-device and flat runs
// compare at constant silicon. Per-tile geometry comes from PerDeviceL2.
// k must be positive.
func (d Device) WithDevices(k int) Device {
	if k <= 0 {
		panic(fmt.Sprintf("gpumodel: WithDevices(%d)", k))
	}
	d.Devices = k
	return d
}

// NumDevices returns the modeled tile count, treating the zero value as
// the flat single-device platform.
func (d Device) NumDevices() int {
	if d.Devices <= 0 {
		return 1
	}
	return d.Devices
}

// PerDeviceL2 returns the private L2 geometry of one tile: the total L2
// capacity split evenly across Devices (cachesim.Config.Split). For
// Devices <= 1 it is the flat L2 unchanged.
func (d Device) PerDeviceL2() cachesim.Config {
	return d.L2.Split(d.NumDevices())
}

// SimDevice returns the A6000 scaled 24× down in cache capacity (256 KB
// L2) with bandwidths scaled by the same factor, matched to the Full
// corpus preset (32K–512K rows).
func SimDevice() Device {
	d := A6000()
	d.Name = "SimA6000/24 (full corpus)"
	d.L2.CapacityBytes = 256 << 10
	d.PeakBandwidth /= 24
	d.EffectiveBandwidth /= 24
	d.PeakFlops /= 24
	d.MemoryBytes /= 24
	return d
}

// SimDeviceSmall returns the variant matched to the Small corpus preset
// (4K–64K rows): a 32 KB L2.
func SimDeviceSmall() Device {
	d := A6000()
	d.Name = "SimA6000/192 (small corpus)"
	d.L2.CapacityBytes = 32 << 10
	d.PeakBandwidth /= 192
	d.EffectiveBandwidth /= 192
	d.PeakFlops /= 192
	d.MemoryBytes /= 192
	return d
}

// ComputeBoundIntensity returns the arithmetic intensity (FLOP/byte) above
// which kernels on this device become compute bound: PeakFlops divided by
// peak bandwidth (≈50 for the A6000, Section IV-B).
func (d Device) ComputeBoundIntensity() float64 {
	return d.PeakFlops / d.PeakBandwidth
}

// Kind identifies a sparse kernel.
type Kind int

const (
	// SpMVCSR is Algorithm 1: sparse matrix (CSR) times dense vector.
	SpMVCSR Kind = iota
	// SpMVCOO is the coordinate-format SpMV (Table IV).
	SpMVCOO
	// SpMMCSR multiplies a CSR matrix by a dense |N|×K matrix (Table IV).
	SpMMCSR
	// SpMVCSC is the pull-style SpMV over Compressed Sparse Column
	// storage: the output vector becomes the irregular operand.
	SpMVCSC
	// SpGEMMCSR is Gustavson sparse×sparse C = A·B with row-wise
	// execution: every A-nonzero dereferences one B row.
	SpGEMMCSR
	// SpGEMMCSRCluster is SpGEMM with cluster-wise execution: the outer
	// loop is tiled by community row blocks, each distinct B row is
	// loaded once per tile, and tile accumulators spill to C at tile end.
	SpGEMMCSRCluster
)

// SpGEMMWork carries the data-dependent work terms of an SpGEMM kernel,
// which — unlike every (n, nnz)-parameterized kernel above — cannot be
// derived from the operand shape alone. Populate it from
// kernels.SpGEMMSymbolic on the same operands the trace was generated
// from; all three counts are invariant under symmetric relabeling, so one
// symbolic pass covers every reordering of a matrix.
type SpGEMMWork struct {
	// Flops is the multiply–add pair count Σ over nonzeros a_ik of
	// nnz(B row k).
	Flops int64
	// NNZB is the nonzero count of the B operand.
	NNZB int64
	// NNZC is the nonzero count of the output C.
	NNZC int64
}

// Kernel is a kernel kind plus its dense width (K is meaningful only for
// SpMMCSR) and, for the SpGEMM kinds, the symbolic work terms.
type Kernel struct {
	// Kind selects the memory-access pattern the traffic model and trace
	// generators reproduce.
	Kind Kind
	// K is the dense right-hand-side width of SpMMCSR; ignored otherwise.
	K int64
	// Work parameterizes the SpGEMM kinds; zero (and ignored) for all
	// others. String() deliberately excludes it so simulation-cache keys
	// built from the kernel name stay stable whether or not a caller
	// bothered to attach Work.
	Work SpGEMMWork
}

// String names the kernel as the paper's tables do.
func (k Kernel) String() string {
	switch k.Kind {
	case SpMVCSR:
		return "SpMV-CSR"
	case SpMVCOO:
		return "SpMV-COO"
	case SpMMCSR:
		return fmt.Sprintf("SpMM-CSR-%d", k.K)
	case SpMVCSC:
		return "SpMV-CSC"
	case SpGEMMCSR:
		return "SpGEMM-CSR"
	case SpGEMMCSRCluster:
		return "SpGEMM-CSR-cluster"
	default:
		return "Kernel(?)"
	}
}

// CompulsoryBytes returns the minimum DRAM traffic for the kernel on an
// n×n matrix with nnz nonzeros, assuming 4-byte elements: every operand
// array crosses DRAM exactly once (Section IV-B). For CSR SpMV this is
// (2·N + (N+1) + 2·NZ)·4 — the X and Y vectors plus rowOffsets, coords,
// and values.
func (k Kernel) CompulsoryBytes(n, nnz int64) int64 {
	const e = 4
	switch k.Kind {
	case SpMVCSR, SpMVCSC:
		// CSC moves the same five arrays: X, Y, offsets, indices, values.
		return (2*n + (n + 1) + 2*nnz) * e
	case SpMVCOO:
		return (2*n + 3*nnz) * e
	case SpMMCSR:
		return (2*n*k.K + (n + 1) + 2*nnz) * e
	case SpGEMMCSR, SpGEMMCSRCluster:
		// Three CSR matrices cross DRAM once each: A (the n/nnz
		// arguments), B (Work.NNZB), and the output C (Work.NNZC). B and C
		// are modeled with n rows apiece — exact for the square C = A·A
		// products the experiments run.
		return (3*(n+1) + 2*(nnz+k.Work.NNZB+k.Work.NNZC)) * e
	default:
		panic("gpumodel: unknown kernel kind")
	}
}

// Flops returns the floating-point work of the kernel: one multiply-add
// per nonzero (per dense column for SpMM).
func (k Kernel) Flops(nnz int64) int64 {
	switch k.Kind {
	case SpMMCSR:
		return 2 * nnz * k.K
	case SpGEMMCSR, SpGEMMCSRCluster:
		return 2 * k.Work.Flops
	default:
		return 2 * nnz
	}
}

// ArithmeticIntensity returns FLOPs per compulsory byte; for SpMV the
// upper bound is 0.25 (Section IV-B).
func (k Kernel) ArithmeticIntensity(n, nnz int64) float64 {
	return float64(k.Flops(nnz)) / float64(k.CompulsoryBytes(n, nnz))
}

// IdealTime returns the minimum execution time in seconds on the device:
// compulsory traffic moved at the achievable bandwidth, per the roofline
// model with the kernel far below the compute-bound intensity.
func IdealTime(d Device, k Kernel, n, nnz int64) float64 {
	return float64(k.CompulsoryBytes(n, nnz)) / d.EffectiveBandwidth
}

// ProjectTime converts simulated L2 statistics into a projected kernel run
// time. DRAM traffic moves at the achievable bandwidth, derated by the
// fraction of L2 accesses that miss: fine-grained irregular misses achieve
// lower effective DRAM utilization than streaming fills (poor row-buffer
// locality and memory-level parallelism), which is why the paper's
// run-time ratios exceed its traffic ratios (Figure 2's caption).
//
//	time = traffic / bandwidth · (1 + penalty · missFraction)
func ProjectTime(d Device, s cachesim.Stats) float64 {
	base := float64(s.TrafficBytes()) / d.EffectiveBandwidth
	if s.Accesses == 0 {
		return base
	}
	missFraction := float64(s.Misses) / float64(s.Accesses)
	return base * (1 + d.FineGrainPenalty*missFraction)
}

// NormalizedTraffic returns simulated DRAM traffic divided by the
// analytic compulsory traffic — the y-axis of Figure 2. Values below 1.0
// are possible when the analytic formula overestimates (e.g. matrices
// whose empty rows mean parts of X are never referenced; footnote 2).
func NormalizedTraffic(s cachesim.Stats, k Kernel, n, nnz int64) float64 {
	return float64(s.TrafficBytes()) / float64(k.CompulsoryBytes(n, nnz))
}

// NormalizedRuntime returns projected run time divided by ideal run time —
// the metric of Figure 3 and Tables II and IV.
func NormalizedRuntime(d Device, s cachesim.Stats, k Kernel, n, nnz int64) float64 {
	return ProjectTime(d, s) / IdealTime(d, k, n, nnz)
}

// HostDevice builds a Device from a measured host bandwidth (bytes/second,
// e.g. from kernels.MeasureStreamBandwidth) and a last-level cache
// geometry, so host-side runs can be normalized against their own ideal
// exactly as the paper normalizes GPU runs against the A6000's.
func HostDevice(name string, achievableBW float64, l2 cachesim.Config) Device {
	return Device{
		Name:               name,
		PeakBandwidth:      achievableBW,
		EffectiveBandwidth: achievableBW,
		// Compute throughput is irrelevant for the memory-bound kernels
		// studied here; set it so the compute-bound intensity matches the
		// A6000's ~50 FLOP/B.
		PeakFlops:        achievableBW * 50,
		L2:               l2,
		MemoryBytes:      1 << 34,
		FineGrainPenalty: 1.0,
		Devices:          1,
		RemotePenalty:    4.0,
	}
}

// RooflineTime returns the roofline execution time for moving the given
// DRAM traffic and executing the kernel's FLOPs: the maximum of the memory
// time and the compute time. For every kernel in this repository the
// memory term dominates (SpMV's arithmetic intensity tops out at 0.25
// FLOP/B, Section IV-B).
func RooflineTime(d Device, k Kernel, nnz int64, trafficBytes int64) float64 {
	mem := float64(trafficBytes) / d.EffectiveBandwidth
	compute := float64(k.Flops(nnz)) / d.PeakFlops
	if compute > mem {
		return compute
	}
	return mem
}
