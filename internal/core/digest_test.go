package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/rabbit_digests.tsv")

// digestHeader names the columns of testdata/rabbit_digests.tsv.
const digestHeader = "matrix\tcsr\trabbit_perm\trabbitpp_perm\trabbit_shard_perm\trabbit_labels\trabbit_parent"

// int32Digest is the SHA-256 of the little-endian encoding of xs.
func int32Digest(xs []int32) string {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// rabbitDigestRow generates one Small corpus matrix and hashes everything
// RABBIT derives from it.
func rabbitDigestRow(e gen.Entry) string {
	m := e.Generate(gen.Small)
	rr := Rabbit(m)
	pp := ModifyRabbit(m, rr, PlusPlusOptions())
	sh := RabbitSharded(m, 1)
	return strings.Join([]string{
		e.Name,
		strings.TrimPrefix(m.Digest(), "sha256:"),
		int32Digest(rr.Perm),
		int32Digest(pp.Perm),
		int32Digest(sh.Perm),
		int32Digest(rr.Communities.Of),
		int32Digest(rr.Parent),
	}, "\t")
}

// TestRabbitDigests pins RABBIT's exact output on every Small corpus
// matrix: the generated matrix (which pins generation through COO.ToCSR
// and CSR.PermuteSymmetric), the RABBIT, RABBIT++ and RABBIT-SHARD
// permutations, and RABBIT's community labels and dendrogram parents. Any
// change to the merge loop that moves a single merge shows up here, which
// two runs of the same code (TestRabbitDeterminism) cannot see.
// Regenerate after an intentional change with:
//
//	go test ./internal/core -run TestRabbitDigests -update
func TestRabbitDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("detects communities on the whole Small corpus; skipped in -short")
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
				rows[i] = rabbitDigestRow(corpus[i])
			}
		}()
	}
	for i := range corpus {
		next <- i
	}
	close(next)
	wg.Wait()

	var buf bytes.Buffer
	fmt.Fprintln(&buf, digestHeader)
	for _, row := range rows {
		fmt.Fprintln(&buf, row)
	}
	path := filepath.Join("testdata", "rabbit_digests.tsv")
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
	cols := strings.Split(digestHeader, "\t")
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
