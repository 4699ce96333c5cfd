package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
)

// subset is a fast, structurally diverse corpus slice used by the tests:
// one high-insularity social graph, one mesh, one hubby web graph, one
// random graph, and the two corner cases.
var subset = []string{"soc-tight-2", "cfd-2d-5pt", "pld-arc-like", "er-deg16", "mawi-like", "wiki-talk-like"}

func testRunner(t testing.TB, names ...string) *Runner {
	t.Helper()
	cfg := SmallConfig()
	if names == nil {
		names = subset
	}
	cfg.Matrices = names
	return NewRunner(cfg)
}

func TestRunnerMatrixCaching(t *testing.T) {
	r := testRunner(t)
	a, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Matrix() did not cache")
	}
	if _, err := r.Matrix("no-such"); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

func TestRunnerEntriesSubset(t *testing.T) {
	r := testRunner(t)
	entries := r.Entries()
	if len(entries) != len(subset) {
		t.Fatalf("Entries() = %d, want %d", len(entries), len(subset))
	}
	full := NewRunner(SmallConfig())
	if len(full.Entries()) != 50 {
		t.Fatalf("full corpus Entries() = %d, want 50", len(full.Entries()))
	}
}

func TestPermCachingSharesRabbit(t *testing.T) {
	r := testRunner(t)
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	p1 := r.Perm(md, reorder.Rabbit{})
	p2 := r.Perm(md, reorder.Rabbit{})
	if &p1[0] != &p2[0] {
		t.Fatal("Perm() did not cache")
	}
	// RabbitPP must reuse the cached detection, and its permutation must
	// differ in general but stay valid.
	pp := r.Perm(md, reorder.RabbitPP{})
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerAdd checks that a matrix handed to the Runner runs the same
// cells as the corpus matrix it copies, under its own unit keys, and that
// registering it counts no unit.
func TestRunnerAdd(t *testing.T) {
	r := testRunner(t, "er-deg16")
	src, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	md := r.Add("copy.mtx", src.M)
	if got, err := r.Matrix("copy.mtx"); err != nil || got != md {
		t.Fatalf("Matrix(copy.mtx) = %p, %v; want the added %p", got, err, md)
	}
	if err := r.Prefetch(SimUnits([]gen.Entry{md.Entry}, []reorder.Technique{reorder.Rabbit{}}, SpMV)); err != nil {
		t.Fatal(err)
	}
	if got, want := r.SimLRU(md, reorder.Rabbit{}, SpMV), r.SimLRU(src, reorder.Rabbit{}, SpMV); got != want {
		t.Fatalf("added matrix simulates to %+v, corpus matrix to %+v", got, want)
	}
	counts := r.UnitCounts()
	if n, ok := counts["matrix|copy.mtx"]; ok {
		t.Errorf("Add counted a matrix unit (%d)", n)
	}
	if n := counts["lru|copy.mtx|RABBIT|SpMV-CSR"]; n != 1 {
		t.Errorf("added matrix's LRU unit ran %d times, want 1", n)
	}
}

func TestSimLRUCaches(t *testing.T) {
	r := testRunner(t)
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	s1 := r.SimLRU(md, reorder.Original{}, SpMV)
	s2 := r.SimLRU(md, reorder.Original{}, SpMV)
	if s1 != s2 {
		t.Fatal("SimLRU not deterministic/cached")
	}
	if s1.Misses < s1.Compulsory || s1.Compulsory == 0 {
		t.Fatalf("implausible stats: %+v", s1)
	}
}

func TestOrderingQualityOnStructuredMatrix(t *testing.T) {
	// End-to-end phenomenon check on one community-structured matrix:
	// RANDOM must be worst, and RABBIT must beat it substantially.
	r := testRunner(t)
	md, err := r.Matrix("soc-tight-2")
	if err != nil {
		t.Fatal(err)
	}
	random := r.NormTraffic(md, reorder.Random{Seed: 1}, SpMV)
	rabbit := r.NormTraffic(md, reorder.Rabbit{}, SpMV)
	if rabbit*2 >= random {
		t.Fatalf("RABBIT traffic %.2f not far below RANDOM %.2f on a community graph", rabbit, random)
	}

	// A mesh (very high insularity after detection) must land near ideal.
	mesh, err := r.Matrix("cfd-2d-5pt")
	if err != nil {
		t.Fatal(err)
	}
	if nt := r.NormTraffic(mesh, reorder.Rabbit{}, SpMV); nt > 1.35 {
		t.Fatalf("RABBIT traffic %.2f on a mesh; expected near ideal", nt)
	}
}

func TestBeladyBelowLRU(t *testing.T) {
	r := testRunner(t)
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	lru := r.SimLRU(md, reorder.Original{}, SpMV)
	opt := r.SimBelady(md, reorder.Original{}, SpMV)
	if opt.Misses > lru.Misses {
		t.Fatalf("Belady misses %d exceed LRU %d", opt.Misses, lru.Misses)
	}
}

func TestExperimentsSmoke(t *testing.T) {
	// Run every registered experiment on the subset; each must produce a
	// non-empty table.
	if testing.Short() {
		t.Skip("experiment suite on subset is a few seconds; skipped in -short")
	}
	r := testRunner(t)
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			var buf bytes.Buffer
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("empty render")
			}
		})
	}
}

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Paper != e.Paper {
			t.Fatalf("ByID(%q) resolved to %q", e.ID, got.Paper)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(func() string { _, err := ByID("nope"); return err.Error() }(), "fig2") {
		t.Fatal("error should list known ids")
	}
}

func TestKernelsOnRunner(t *testing.T) {
	// COO and SpMM simulations produce sane normalized traffic (>= ~1).
	r := testRunner(t)
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []gpumodel.Kernel{
		{Kind: gpumodel.SpMVCOO},
		{Kind: gpumodel.SpMMCSR, K: 4},
		{Kind: gpumodel.SpMMCSR, K: 256},
	} {
		nt := r.NormTraffic(md, reorder.Original{}, k)
		if nt < 0.5 || nt > 100 {
			t.Fatalf("%s normalized traffic = %v, implausible", k.String(), nt)
		}
	}
}

func TestWikiTalkBelowIdeal(t *testing.T) {
	// Footnote 2: matrices dominated by empty rows can measure below the
	// analytic "ideal" because the formula counts the whole input vector.
	r := testRunner(t)
	md, err := r.Matrix("wiki-talk-like")
	if err != nil {
		t.Fatal(err)
	}
	nt := r.NormTraffic(md, reorder.RabbitPP{}, SpMV)
	if nt >= 1.3 {
		t.Fatalf("wiki-talk-like normalized traffic %.2f; expected near or below 1 (formula overestimates)", nt)
	}
}

func TestFig2TableShape(t *testing.T) {
	r := testRunner(t, "er-deg16", "mawi-like")
	tb, err := Fig2(r)
	if err != nil {
		t.Fatal(err)
	}
	// One row per matrix plus the two mean rows; 2 label columns plus the
	// six Figure 2 techniques.
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig2 rows = %d, want 4", len(tb.Rows))
	}
	if len(tb.Columns) != 8 {
		t.Fatalf("Fig2 columns = %d, want 8", len(tb.Columns))
	}
	if tb.Rows[2][0] != "MEAN-TRAFFIC" || tb.Rows[3][0] != "MEAN-RUNTIME" {
		t.Fatalf("mean rows misplaced: %v / %v", tb.Rows[2][0], tb.Rows[3][0])
	}
}

func TestObservationsShape(t *testing.T) {
	r := testRunner(t, "er-deg16", "cfd-2d-5pt")
	tb, err := Observations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Observations rows = %d, want 3", len(tb.Rows))
	}
}
