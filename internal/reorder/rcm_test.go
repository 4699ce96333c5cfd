package reorder

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/rcm_digests.tsv")

// rcmDigestHeader names the columns of testdata/rcm_digests.tsv.
const rcmDigestHeader = "matrix\tcsr\trcm_perm\trcmpp_perm"

// sha256Perm is the SHA-256 of the little-endian encoding of p.
func sha256Perm(p sparse.Permutation) string {
	buf := make([]byte, 4*len(p))
	for i, x := range p {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// rcmDigestRow generates one Small corpus matrix and hashes its RCM and
// RCM++ permutations.
func rcmDigestRow(e gen.Entry) string {
	m := e.Generate(gen.Small)
	return strings.Join([]string{
		e.Name,
		strings.TrimPrefix(m.Digest(), "sha256:"),
		sha256Perm(RCM{}.Order(m)),
		sha256Perm(RCMPP{}.Order(m)),
	}, "\t")
}

// TestRCMDigests pins the exact RCM and RCM++ permutations of every Small
// corpus matrix. Both orderings break every tie by degree and then by
// vertex ID, so a change to the BFS, the stable sorts or RCM++'s start
// finder that moves a single vertex shows up here. Regenerate after an
// intentional change with:
//
//	go test ./internal/reorder -run TestRCMDigests -update
func TestRCMDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("orders the whole Small corpus; skipped in -short")
	}
	corpus := gen.Corpus()
	rows := make([]string, len(corpus))
	// Matrices are independent; a small pool keeps the wall time down
	// without changing any row.
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.NumCPU(), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i] = rcmDigestRow(corpus[i])
			}
		}()
	}
	for i := range corpus {
		next <- i
	}
	close(next)
	wg.Wait()

	var buf bytes.Buffer
	fmt.Fprintln(&buf, rcmDigestHeader)
	for _, row := range rows {
		fmt.Fprintln(&buf, row)
	}
	path := filepath.Join("testdata", "rcm_digests.tsv")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (regenerate with -update): %v", err)
	}
	wantRows := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotRows := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s has %d rows, the corpus gives %d", path, len(wantRows), len(gotRows))
	}
	cols := strings.Split(rcmDigestHeader, "\t")
	for i := range gotRows {
		if gotRows[i] == wantRows[i] {
			continue
		}
		g, w := strings.Split(gotRows[i], "\t"), strings.Split(wantRows[i], "\t")
		for c := range cols {
			if c < len(g) && c < len(w) && g[c] != w[c] {
				t.Errorf("%s: %s digest %s, want %s", g[0], cols[c], g[c], w[c])
			}
		}
		if len(g) != len(w) {
			t.Errorf("row %d: %d columns, want %d", i, len(g), len(w))
		}
	}
}

// disjointEdges is the n-vertex graph of n/2 disjoint edges {2i, 2i+1}:
// n/2 connected components, each of two vertices.
func disjointEdges(n int32) *sparse.CSR {
	c := sparse.NewCOO(n, n, int(n))
	for v := int32(0); v+1 < n; v += 2 {
		c.AddSym(v, v+1, 1)
	}
	return c.ToCSR()
}

// bytesPerVertex is the heap bytes one RCM++ ordering of m allocates,
// divided by its vertex count.
func bytesPerVertex(t *testing.T, m *sparse.CSR, workers int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := (RCMPP{}).OrderParallelCtx(context.Background(), m, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(m.NumRows)
}

// TestRCMPPScratchIndependentOfComponents pins that RCM++ allocates its
// candidate scratch once per ordering, not once per connected component:
// on a graph of n/2 two-vertex components the bytes allocated per vertex
// must not grow with n. A per-component n-entry array makes them grow
// linearly (16× more vertices, about 15× more bytes per vertex).
func TestRCMPPScratchIndependentOfComponents(t *testing.T) {
	small, large := disjointEdges(1024), disjointEdges(16384)
	for _, w := range []int{1, 2} {
		a, b := bytesPerVertex(t, small, w), bytesPerVertex(t, large, w)
		t.Logf("workers=%d: %.0f B/vertex at n=1024, %.0f at n=16384", w, a, b)
		if b > 2*a {
			t.Errorf("workers=%d: %.0f B/vertex at n=16384, more than twice the %.0f at n=1024", w, b, a)
		}
	}
}

// TestBFSScratchEpochRestart pins that a traversal whose epoch counter has
// reached MaxInt32 restarts the counter on a cleared array instead of
// wrapping: stale stamps equal to the restarted epoch (1) or to a wrapped
// one (MinInt32) must not count as reached.
func TestBFSScratchEpochRestart(t *testing.T) {
	m := testMatrix(5)
	sym := m.Symmetrize()
	fresh := bfsScratch{seen: make([]int32, sym.NumRows)}
	want := fresh.measure(context.Background(), sym, 0)
	for _, stale := range []int32{1, math.MinInt32} {
		s := bfsScratch{seen: make([]int32, sym.NumRows), epoch: math.MaxInt32}
		for i := range s.seen {
			s.seen[i] = stale
		}
		got := s.measure(context.Background(), sym, 0)
		if got.height != want.height || got.width != want.width || s.epoch != 1 {
			t.Errorf("stale stamp %d: height %d, width %d, epoch %d after the restart; want %d, %d, 1",
				stale, got.height, got.width, s.epoch, want.height, want.width)
		}
	}
}
