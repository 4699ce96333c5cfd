// Package quality provides ordering-quality metrics independent of any
// cache model, in the spirit of the reordering analyses the paper cites as
// complementary (Barik et al.'s gap measures, Esfahani et al.'s locality
// analysis): edge-distance statistics, gap profiles, cache-line packing,
// and a windowed working-set estimate that formalizes the Figure 1
// intuition (a community-ordered matrix needs few input-vector elements
// cached at any point of the execution).
package quality

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/sparse"
)

// SkewTopFraction is the paper's skew cut: "the percentage of non-zeros
// connected to the top 10% most connected rows" (Section V-B).
const SkewTopFraction = 0.10

// DegreeSkew returns the fraction of nonzeros belonging to the top 10%
// most connected rows by in-degree (matching the paper's use of in-degrees
// for push-style kernels). High skew indicates strong power-law behaviour
// and predicts that plain community ordering struggles (Section V-B), the
// motivation for RABBIT++'s hub grouping. This is the one shared
// implementation used by the community-stats analysis, the advisor's
// feature extractor, and the CLI/report surfaces.
func DegreeSkew(m *sparse.CSR) float64 {
	return TopFracMass(m.InDegrees(), int64(m.NNZ()), SkewTopFraction)
}

// DegreeSkewFrac generalizes DegreeSkew to an arbitrary top fraction; the
// tests use it to check corner cases away from the paper's 0.10 cut.
func DegreeSkewFrac(m *sparse.CSR, frac float64) float64 {
	return TopFracMass(m.InDegrees(), int64(m.NNZ()), frac)
}

// TopFracMass returns the share of `total` mass owned by the top `frac`
// fraction of entries in deg (at least one entry is always counted). It is
// the kernel of the degree-skew metric, split out so callers with a
// precomputed degree array (e.g. hub detection working from in-degrees)
// avoid recomputing it.
func TopFracMass(deg []int32, total int64, frac float64) float64 {
	if total == 0 || len(deg) == 0 {
		return 0
	}
	sorted := slices.Clone(deg)
	slices.Sort(sorted)
	k := int(float64(len(sorted)) * frac)
	if k < 1 {
		k = 1
	}
	var top int64
	for _, d := range sorted[len(sorted)-k:] {
		top += int64(d)
	}
	return float64(top) / float64(total)
}

// AverageEdgeDistance returns the mean |p(u) − p(v)| over stored nonzeros
// under the given ordering. Smaller distances mean irregular accesses land
// closer to the streaming frontier.
func AverageEdgeDistance(m *sparse.CSR, p sparse.Permutation) float64 {
	if m.NNZ() == 0 {
		return 0
	}
	var total float64
	for r := int32(0); r < m.NumRows; r++ {
		cols, _ := m.Row(r)
		pr := int64(p[r])
		for _, c := range cols {
			d := pr - int64(p[c])
			if d < 0 {
				d = -d
			}
			total += float64(d)
		}
	}
	return total / float64(m.NNZ())
}

// GapProfile returns a histogram of log2(1+|p(u)−p(v)|) over stored
// nonzeros: bucket i counts gaps in [2^(i-1), 2^i). Mass in low buckets
// indicates locality-friendly orderings (Barik et al.'s "gap" measures).
func GapProfile(m *sparse.CSR, p sparse.Permutation) []int64 {
	profile := make([]int64, 34)
	for r := int32(0); r < m.NumRows; r++ {
		cols, _ := m.Row(r)
		pr := int64(p[r])
		for _, c := range cols {
			d := pr - int64(p[c])
			if d < 0 {
				d = -d
			}
			profile[bits.Len64(uint64(d))]++
		}
	}
	return profile
}

// MeanLog2Gap summarizes a gap profile as the average bucket index — an
// ordering scores well when most gaps are small powers of two.
func MeanLog2Gap(profile []int64) float64 {
	var total, weighted int64
	for b, c := range profile {
		total += c
		weighted += int64(b) * c
	}
	if total == 0 {
		return 0
	}
	return float64(weighted) / float64(total)
}

// LinePacking measures how efficiently the ordering packs each row's
// irregular references into cache lines: the total minimal line count
// (ceil(rowLen/elemsPerLine)) divided by the distinct lines actually
// touched per row. 1.0 is perfect packing; values approach
// min(1, elemsPerLine/rowLen-ish) for scattered orderings.
func LinePacking(m *sparse.CSR, p sparse.Permutation, lineBytes int64) float64 {
	elems := lineBytes / 4
	if elems < 1 {
		elems = 1
	}
	var minimal, touched int64
	seen := make(map[int64]struct{}, 64)
	for r := int32(0); r < m.NumRows; r++ {
		cols, _ := m.Row(r)
		if len(cols) == 0 {
			continue
		}
		clear(seen)
		for _, c := range cols {
			seen[int64(p[c])/elems] = struct{}{}
		}
		minimal += (int64(len(cols)) + elems - 1) / elems
		touched += int64(len(seen))
	}
	if touched == 0 {
		return 1
	}
	return float64(minimal) / float64(touched)
}

// WindowedWorkingSet estimates the input-vector working set: the average
// number of distinct referenced columns over sliding windows of `window`
// consecutive rows in the new order. Multiplying by the element size gives
// the cache footprint the window needs to avoid capacity misses — the
// quantity Figure 1 illustrates (9 elements randomly ordered vs 4
// community-ordered).
func WindowedWorkingSet(m *sparse.CSR, p sparse.Permutation, window int32) float64 {
	if window <= 0 || m.NumRows == 0 {
		return 0
	}
	inv := p.Inverse()
	var totalDistinct float64
	var windows int
	distinct := make(map[int32]struct{}, 256)
	for start := int32(0); start < m.NumRows; start += window {
		end := start + window
		if end > m.NumRows {
			end = m.NumRows
		}
		clear(distinct)
		for newID := start; newID < end; newID++ {
			cols, _ := m.Row(inv[newID])
			for _, c := range cols {
				distinct[p[c]] = struct{}{}
			}
		}
		totalDistinct += float64(len(distinct))
		windows++
	}
	return totalDistinct / float64(windows)
}

// Summary bundles the quality metrics of one ordering.
type Summary struct {
	AvgEdgeDistance float64
	MeanLog2Gap     float64
	LinePacking     float64
	WorkingSet      float64
	Bandwidth       int32
}

// Measure computes all quality metrics of an ordering in one pass set.
func Measure(m *sparse.CSR, p sparse.Permutation, lineBytes int64, window int32) Summary {
	pm := m.PermuteSymmetric(p)
	return Summary{
		AvgEdgeDistance: AverageEdgeDistance(m, p),
		MeanLog2Gap:     MeanLog2Gap(GapProfile(m, p)),
		LinePacking:     LinePacking(m, p, lineBytes),
		WorkingSet:      WindowedWorkingSet(m, p, window),
		Bandwidth:       pm.Bandwidth(),
	}
}

// Normalized returns the working set as a fraction of the matrix dimension
// (1.0 means every window touches the whole input vector).
func (s Summary) NormalizedWorkingSet(n int32) float64 {
	if n == 0 {
		return 0
	}
	v := s.WorkingSet / float64(n)
	return math.Min(v, 1)
}
