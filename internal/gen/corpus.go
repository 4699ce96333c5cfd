package gen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sparse"
)

// Preset selects the corpus scale. The paper's matrices span 1.5M–226M rows
// against a 6 MB L2; running that on one CPU core is infeasible, so the
// corpus is scaled down while the experiments scale the simulated L2 by the
// same factor (see internal/gpumodel). What matters for every reported
// metric is the ratio of the input-vector footprint to cache capacity, which
// both presets preserve.
type Preset int

const (
	// Small is used by tests and benchmarks: 4K–64K rows against a 32 KB L2.
	Small Preset = iota
	// Full is used by cmd/experiments: 32K–512K rows against a 256 KB L2.
	Full
)

// String returns the preset name.
func (p Preset) String() string {
	switch p {
	case Small:
		return "small"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// ParsePreset resolves a preset name, the inverse of Preset.String.
func ParsePreset(name string) (Preset, error) {
	for _, p := range []Preset{Small, Full} {
		if p.String() == name {
			return p, nil
		}
	}
	return Small, fmt.Errorf("gen: unknown preset %q (want %q or %q)", name, Small, Full)
}

// Generator produces a matrix from a seed.
type Generator interface {
	Generate(seed uint64) *sparse.CSR
}

// Entry is one curated corpus matrix: a named, seeded generator
// configuration plus provenance metadata mirroring the paper's Section III
// bookkeeping (source repository and whether the "publisher" applied a
// locality-aware reordering before release — the paper's Observation 3).
type Entry struct {
	Name   string
	Family string // structural family: social, web, mesh, road, ...
	Source string // analog of SuiteSparse / Konect / WebDataCommons
	// PublisherBFS marks entries whose dataset publisher applied a
	// sophisticated ordering before release (like sk-2005's layered label
	// propagation); we model that with a BFS ordering.
	PublisherBFS bool
	Seed         uint64
	build        func(Preset) Generator
}

// Generate materializes the matrix at the given preset scale.
func (e Entry) Generate(p Preset) *sparse.CSR {
	m := e.build(p).Generate(e.Seed)
	if e.PublisherBFS {
		m = m.PermuteSymmetric(bfsOrder(m))
	}
	return m
}

// sn scales a Full-preset node count down for the Small preset.
func sn(p Preset, full int32) int32 {
	if p == Full {
		return full
	}
	n := full / 8
	if n < 4096 {
		n = 4096
	}
	return n
}

// sc scales a Full-preset count (communities, hubs) without sn's node-count
// floor, so per-community sizes stay proportional at every preset.
func sc(p Preset, full int32) int32 {
	if p == Full {
		return full
	}
	n := full / 8
	if n < 1 {
		n = 1
	}
	return n
}

// sl scales a Full-preset log2 node count for RMAT.
func sl(p Preset, full int) int {
	if p == Full {
		return full
	}
	return full - 3
}

// Corpus returns the 50-entry curated dataset. The list is fixed and
// deterministic; the preset only scales matrix sizes. Families and counts
// are chosen to mirror the diversity the paper reports (social networks,
// hyperlink graphs, circuit simulation, nonlinear optimization, CFD, road
// networks, protein k-mers, knowledge/communication graphs,
// electromagnetics, and the mawi / wiki-Talk corner cases).
func Corpus() []Entry {
	var c []Entry
	add := func(name, family, source string, pubBFS bool, build func(Preset) Generator) {
		c = append(c, Entry{
			Name:         name,
			Family:       family,
			Source:       source,
			PublisherBFS: pubBFS,
			Seed:         uint64(len(c))*0x9e3779b97f4a7c15 + 12345,
			build:        build,
		})
	}

	// --- Social networks with planted community structure (10) ---
	pp := func(nodes, comms, deg int32, mu, skew float64) func(Preset) Generator {
		return func(p Preset) Generator {
			return PlantedPartition{Nodes: sn(p, nodes), Communities: sc(p, comms), AvgDegree: deg, Mu: mu, SizeSkew: skew}
		}
	}
	add("soc-tight-1", "social", "suitesparse-like", false, pp(262144, 2048, 16, 0.05, 0))
	add("soc-tight-2", "social", "suitesparse-like", false, pp(131072, 1024, 24, 0.10, 0))
	add("soc-mid-1", "social", "konect-like", false, pp(262144, 1024, 12, 0.20, 0))
	add("soc-mid-2", "social", "suitesparse-like", false, pp(196608, 512, 16, 0.30, 0))
	add("soc-loose-1", "social", "konect-like", false, pp(262144, 768, 14, 0.40, 0))
	add("soc-loose-2", "social", "suitesparse-like", false, pp(131072, 512, 20, 0.50, 0))
	add("soc-skewed-1", "social", "konect-like", false, pp(262144, 1536, 16, 0.15, 1.1))
	add("soc-skewed-2", "social", "suitesparse-like", false, pp(196608, 1024, 18, 0.30, 1.3))
	add("com-lj-like", "social", "suitesparse-like", false, pp(524288, 2048, 16, 0.35, 1.0))
	add("com-orkut-like", "social", "suitesparse-like", false, pp(262144, 512, 32, 0.45, 0.8))

	// --- Hierarchical web crawls (5) ---
	hier := func(nodes int32, levels int, fanout, deg int32, escape float64) func(Preset) Generator {
		return func(p Preset) Generator {
			return Hierarchical{Nodes: sn(p, nodes), Levels: levels, Fanout: fanout, AvgDegree: deg, Escape: escape}
		}
	}
	// sk-2005's publisher applied layered label propagation before release;
	// we model that with PublisherBFS.
	add("sk-2005-like", "web", "suitesparse-like", true, hier(524288, 6, 8, 20, 0.15))
	add("web-hier-mid", "web", "wdc-like", false, hier(262144, 5, 8, 16, 0.25))
	add("web-deep", "web", "wdc-like", false, hier(262144, 8, 4, 12, 0.10))
	add("web-shallow", "web", "konect-like", false, hier(131072, 3, 32, 18, 0.20))
	add("wdc-host-like", "web", "wdc-like", false, hier(393216, 6, 6, 14, 0.18))

	// --- R-MAT power-law graphs (5) ---
	rmat := func(logN int, deg int32, a, b, cq float64, sym bool) func(Preset) Generator {
		return func(p Preset) Generator {
			return RMAT{LogNodes: sl(p, logN), AvgDegree: deg, A: a, B: b, C: cq, Symmetric: sym}
		}
	}
	add("rmat-skew-lo", "powerlaw", "suitesparse-like", false, rmat(18, 16, 0.45, 0.22, 0.22, true))
	add("rmat-skew-mid", "powerlaw", "suitesparse-like", false, rmat(17, 16, 0.50, 0.20, 0.20, true))
	add("rmat-skew-hi", "powerlaw", "konect-like", false, rmat(18, 16, 0.57, 0.19, 0.19, true))
	add("twitter-like", "powerlaw", "konect-like", false, rmat(17, 24, 0.60, 0.17, 0.17, false))
	add("kron-dense", "powerlaw", "suitesparse-like", false, rmat(17, 32, 0.55, 0.18, 0.18, true))

	// --- Community + hub hyperlink mixtures (4) ---
	hubby := func(nodes, comms, deg int32, mu float64, hubs, hubDeg int32) func(Preset) Generator {
		return func(p Preset) Generator {
			return HubbyCommunities{Nodes: sn(p, nodes), Communities: sc(p, comms), AvgDegree: deg, Mu: mu,
				Hubs: sc(p, hubs), HubDegree: hubDeg}
		}
	}
	add("pld-arc-like", "web", "wdc-like", false, hubby(262144, 1024, 12, 0.25, 2048, 96))
	add("sx-stackoverflow-like", "social", "suitesparse-like", false, hubby(262144, 2048, 10, 0.15, 4096, 64))
	add("wiki-topcats-like", "web", "suitesparse-like", false, hubby(131072, 512, 14, 0.30, 1024, 128))
	add("hollywood-like", "social", "suitesparse-like", false, hubby(196608, 768, 24, 0.20, 1536, 80))

	// --- Meshes: CFD / electromagnetics / thermal (6) ---
	mesh2 := func(full int32, nine bool) func(Preset) Generator {
		return func(p Preset) Generator {
			side := isqrt(sn(p, full*full))
			return Mesh2D{Width: side, Height: side, NinePoint: nine}
		}
	}
	mesh3 := func(full int32) func(Preset) Generator {
		return func(p Preset) Generator {
			side := icbrt(sn(p, full*full*full))
			return Mesh3D{X: side, Y: side, Z: side}
		}
	}
	add("cfd-2d-5pt", "mesh", "suitesparse-like", false, mesh2(512, false))
	add("cfd-2d-9pt", "mesh", "suitesparse-like", false, mesh2(448, true))
	add("em-3d-64", "mesh", "suitesparse-like", false, mesh3(64))
	add("em-3d-48", "mesh", "suitesparse-like", false, mesh3(48))
	add("thermal-2d", "mesh", "suitesparse-like", false, mesh2(576, true))
	add("dna-3d-56", "mesh", "suitesparse-like", false, mesh3(56))

	// --- Road networks (3) ---
	road := func(w, h int32, drop float64, scDiv int32) func(Preset) Generator {
		return func(p Preset) Generator {
			n := sn(p, w*h)
			width := isqrt(n * w / h)
			if width < 2 {
				width = 2
			}
			height := n / width
			return RoadGrid{Width: width, Height: height, DropProb: drop, Shortcuts: n / scDiv}
		}
	}
	add("road-usa-like", "road", "suitesparse-like", false, road(768, 512, 0.25, 128))
	add("road-eu-like", "road", "suitesparse-like", false, road(512, 512, 0.30, 96))
	add("road-dense", "road", "konect-like", false, road(512, 384, 0.10, 256))

	// --- Small-world graphs (3) ---
	ws := func(nodes, k int32, beta float64) func(Preset) Generator {
		return func(p Preset) Generator {
			return WattsStrogatz{Nodes: sn(p, nodes), K: k, Beta: beta}
		}
	}
	add("ws-k8-b01", "smallworld", "konect-like", false, ws(262144, 8, 0.01))
	add("ws-k16-b05", "smallworld", "konect-like", false, ws(131072, 16, 0.05))
	add("ws-k4-b20", "smallworld", "suitesparse-like", false, ws(262144, 4, 0.20))

	// --- Uniform random graphs (3) ---
	er := func(nodes, deg int32) func(Preset) Generator {
		return func(p Preset) Generator { return ErdosRenyi{Nodes: sn(p, nodes), AvgDegree: deg} }
	}
	add("er-deg8", "random", "suitesparse-like", false, er(262144, 8))
	add("er-deg16", "random", "konect-like", false, er(131072, 16))
	add("er-deg32", "random", "suitesparse-like", false, er(131072, 32))

	// --- Banded circuit / optimization matrices (4) ---
	banded := func(nodes, band int32, density float64, offDiv int32) func(Preset) Generator {
		return func(p Preset) Generator {
			n := sn(p, nodes)
			off := int32(0)
			if offDiv > 0 {
				off = n / offDiv
			}
			return Banded{Nodes: n, Band: band, Density: density, OffBand: off, Symmetric: true}
		}
	}
	add("circuit-like", "circuit", "suitesparse-like", false, banded(262144, 16, 0.50, 64))
	add("opt-like", "optimization", "suitesparse-like", false, banded(131072, 64, 0.15, 0))
	add("band-narrow", "circuit", "suitesparse-like", false, banded(524288, 4, 0.90, 0))
	add("freescale-like", "circuit", "suitesparse-like", false, banded(262144, 32, 0.25, 32))

	// --- Protein k-mer chains (3) ---
	kmer := func(nodes, chain int32, branch float64) func(Preset) Generator {
		return func(p Preset) Generator {
			return KmerChain{Nodes: sn(p, nodes), ChainLen: chain, BranchProb: branch}
		}
	}
	add("kmer-v1r-like", "kmer", "suitesparse-like", false, kmer(524288, 1024, 0.05))
	add("kmer-short", "kmer", "suitesparse-like", false, kmer(262144, 128, 0.05))
	add("kmer-branchy", "kmer", "suitesparse-like", false, kmer(262144, 512, 0.20))

	// --- Giant-hub corner cases, mawi-like (2) ---
	// A single dominant hub (a traffic-monitoring point) makes incremental
	// aggregation fold nearly the whole graph into one community: high
	// insularity, no locality benefit — the paper's mawi anomaly.
	add("mawi-like", "traffic", "suitesparse-like", false, func(p Preset) Generator {
		return HubStar{Nodes: sn(p, 262144), Hubs: 1, HubConn: 0.95, Background: sn(p, 262144) / 64}
	})
	add("star-dense", "traffic", "konect-like", false, func(p Preset) Generator {
		return HubStar{Nodes: sn(p, 131072), Hubs: 8, HubConn: 0.10, Background: sn(p, 131072) / 2}
	})

	// --- Empty-row-heavy, wiki-Talk-like (2) ---
	add("wiki-talk-like", "communication", "suitesparse-like", false, func(p Preset) Generator {
		return EmptyRowHeavy{Nodes: sn(p, 262144), ActiveFrac: 0.07, AvgDegree: 30, TargetSkew: 1.2}
	})
	add("email-like", "communication", "konect-like", false, func(p Preset) Generator {
		return EmptyRowHeavy{Nodes: sn(p, 131072), ActiveFrac: 0.15, AvgDegree: 20, TargetSkew: 1.0}
	})

	if len(c) != 50 {
		panic(fmt.Sprintf("gen: corpus has %d entries, want 50", len(c)))
	}
	return c
}

// ByName returns the corpus entry with the given name.
func ByName(name string) (Entry, error) {
	for _, e := range Corpus() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("gen: no corpus entry named %q", name)
}

// ParseMatrices parses a comma-separated list of corpus matrix names, the
// form every -matrices flag takes. Each name is trimmed of spaces and
// empty names are skipped; the first name ByName rejects is an error. A
// list with no names returns nil, which callers read as the whole corpus.
func ParseMatrices(list string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, err := ByName(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	return names, nil
}

// Names returns the sorted corpus entry names.
func Names() []string {
	var out []string
	for _, e := range Corpus() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// CheckSelection applies the paper's Section III selection rule to a
// generated matrix: the matrix must be square and the worst-case input
// vector footprint (rows × 4 bytes) must exceed the simulated L2 capacity,
// otherwise reuse trivially fits in cache and the matrix cannot
// discriminate between orderings.
func CheckSelection(m *sparse.CSR, l2Bytes int64) error {
	if !m.IsSquare() {
		return fmt.Errorf("gen: selection requires square matrices, got %dx%d", m.NumRows, m.NumCols)
	}
	footprint := int64(m.NumRows) * 4
	if footprint <= l2Bytes {
		return fmt.Errorf("gen: input-vector footprint %dB does not exceed L2 capacity %dB", footprint, l2Bytes)
	}
	return nil
}

// bfsOrder computes a breadth-first ordering (old ID listing) from node 0,
// visiting neighbors in ascending ID order, and returns the corresponding
// permutation. Unreached vertices are appended in ID order. This stands in
// for the locality-aware orderings some dataset publishers apply before
// release.
func bfsOrder(m *sparse.CSR) sparse.Permutation {
	n := m.NumRows
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for start := int32(0); start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		order = append(order, start)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			cols, _ := m.Row(u)
			for _, v := range cols {
				if !visited[v] {
					visited[v] = true
					order = append(order, v)
					queue = append(queue, v)
				}
			}
		}
	}
	return sparse.FromNewOrder(order)
}

// isqrt returns the integer square root of n.
func isqrt(n int32) int32 {
	if n < 0 {
		return 0
	}
	x := int32(1)
	for x*x <= n {
		x++
	}
	return x - 1
}

// icbrt returns the integer cube root of n.
func icbrt(n int32) int32 {
	if n < 0 {
		return 0
	}
	x := int32(1)
	for x*x*x <= n {
		x++
	}
	return x - 1
}
