package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite the digest tables under testdata")

// ownedDigestHeader names the columns of testdata/owned_digests.tsv.
const ownedDigestHeader = "matrix\tkernel\towner\tline_bytes\taccesses\tstream_sha256\thome_sha256"

// ownedDigest hashes an owned trace: the (device, line) stream as
// little-endian int32/int64 records, and the home map as little-endian
// int32s.
func ownedDigest(ot OwnedTrace) (accesses int64, stream, home string) {
	h := sha256.New()
	var rec [12]byte
	ot.Trace(func(dev int32, line int64) {
		binary.LittleEndian.PutUint32(rec[:4], uint32(dev))
		binary.LittleEndian.PutUint64(rec[4:], uint64(line))
		h.Write(rec[:])
		accesses++
	})
	stream = hex.EncodeToString(h.Sum(nil))
	buf := make([]byte, 4*len(ot.Home))
	for i, d := range ot.Home {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(d))
	}
	sum := sha256.Sum256(buf)
	return accesses, stream, hex.EncodeToString(sum[:])
}

// scatterOwner labels n rows over k devices by a multiplicative hash, so
// neighbouring rows, and the elements sharing one cache line, land on
// unrelated devices.
func scatterOwner(n, k int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32((uint32(i) * 2654435761 >> 8) % uint32(k))
	}
	return out
}

// reversedCOO is m's COO with its entries in reverse order, so rows
// arrive descending and Y is dereferenced irregularly.
func reversedCOO(m *sparse.CSR) *sparse.COO {
	c := sparse.CSRToCOO(m)
	slices.Reverse(c.RowIdx)
	slices.Reverse(c.ColIdx)
	slices.Reverse(c.Values)
	return c
}

// digestLineSizes are the line sizes both digest tables pin: every
// power of two from below one element (2 bytes) to the modelled 128.
var digestLineSizes = []int64{2, 4, 32, 64, 128}

// digestMatrix is one matrix of the digest tables.
type digestMatrix struct {
	name string
	m    *sparse.CSR
}

// digestMatrices returns the matrices both digest tables run every
// generator over: two small random graphs and the Small wiki-talk-like,
// for its empty rows.
func digestMatrices(t *testing.T) []digestMatrix {
	t.Helper()
	wiki, err := gen.ByName("wiki-talk-like")
	if err != nil {
		t.Fatal(err)
	}
	return []digestMatrix{
		{"er-257", gen.ErdosRenyi{Nodes: 257, AvgDegree: 6}.Generate(1)},
		{"planted-300", gen.PlantedPartition{Nodes: 300, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(2)},
		{"wiki-talk-like", wiki.Generate(gen.Small)},
	}
}

// checkDigestTable compares got, a TSV whose first line is header, with
// testdata/name, or rewrites that file under -update. Rows are compared
// column by column from column keys on; the columns before it name the
// row.
func checkDigestTable(t *testing.T, name, header string, keys int, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (regenerate with -update): %v", err)
	}
	wantRows := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotRows := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s has %d rows, the generators give %d", path, len(wantRows), len(gotRows))
	}
	cols := strings.Split(header, "\t")
	for i := range gotRows {
		if gotRows[i] == wantRows[i] {
			continue
		}
		g, w := strings.Split(gotRows[i], "\t"), strings.Split(wantRows[i], "\t")
		if len(g) != len(w) {
			t.Errorf("row %d: %d columns, want %d", i, len(g), len(w))
			continue
		}
		for c := keys; c < len(cols); c++ {
			if g[c] != w[c] {
				t.Errorf("%s: %s is %s, want %s", strings.Join(g[:keys], "/"), cols[c], g[c], w[c])
			}
		}
	}
}

// TestOwnedDigests pins the device-attributed streams and home maps of
// every owned generator: the SHA-256 of each (device, line) sequence and
// of each Home map, for every kernel over the digest matrices, three
// owner vectors and every digest line size. A change that moves one
// access, retags one device or rehomes one line shows up here.
// Regenerate after an intentional change with:
//
//	go test ./internal/trace -run TestOwnedDigests -update
func TestOwnedDigests(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, ownedDigestHeader)
	for _, mat := range digestMatrices(t) {
		m := mat.m
		info, err := kernels.SpGEMMSymbolic(m, m)
		if err != nil {
			t.Fatal(err)
		}
		coo, rev := sparse.CSRToCOO(m), reversedCOO(m)
		owners := []struct {
			name  string
			owner []int32
		}{
			{"k1", make([]int32, m.NumRows)},
			{"block4", blockOwner(m.NumRows, 4)},
			{"scatter16", scatterOwner(m.NumRows, 16)},
		}
		for _, line := range digestLineSizes {
			for _, o := range owners {
				cases := []struct {
					name  string
					owned OwnedTrace
				}{
					{"spmv-csr", SpMVCSROwned(m, o.owner, line)},
					{"spmv-coo", SpMVCOOOwned(coo, o.owner, line)},
					{"spmv-coo-rev", SpMVCOOOwned(rev, o.owner, line)},
					{"spmm-4", SpMMCSROwned(m, 4, o.owner, line)},
					{"spmm-97", SpMMCSROwned(m, 97, o.owner, line)},
					{"spgemm", SpGEMMOwned(m, m, info.RowNNZ, o.owner, line)},
				}
				for _, k := range cases {
					acc, stream, home := ownedDigest(k.owned)
					fmt.Fprintf(&buf, "%s\t%s\t%s\t%d\t%d\t%s\t%s\n", mat.name, k.name, o.name, line, acc, stream, home)
				}
			}
		}
	}
	checkDigestTable(t, "owned_digests.tsv", ownedDigestHeader, 4, buf.Bytes())
}
