package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/kernels"
)

// flatDigestHeader names the columns of testdata/flat_digests.tsv.
const flatDigestHeader = "matrix\tkernel\tline_bytes\taccesses\tstream_sha256"

// flatDigest hashes a flat stream as little-endian int64 line IDs.
func flatDigest(stream func(emit func(int64))) (accesses int64, sum string) {
	h := sha256.New()
	var rec [8]byte
	stream(func(line int64) {
		binary.LittleEndian.PutUint64(rec[:], uint64(line))
		h.Write(rec[:])
		accesses++
	})
	return accesses, hex.EncodeToString(h.Sum(nil))
}

// TestFlatDigests pins the streams that have no owned counterpart, so
// TestOwnedDigests does not cover them: the cluster-wise SpGEMM schedule
// under community.Shards tiles and under RABBIT community tiles of the
// RABBIT-ordered matrix, the interleaved and tiled SpMV variants, and
// the CSC SpMV, over the digest matrices at every digest line size.
// Regenerate after an intentional change with:
//
//	go test ./internal/trace -run TestFlatDigests -update
func TestFlatDigests(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, flatDigestHeader)
	for _, mat := range digestMatrices(t) {
		m := mat.m
		info, err := kernels.SpGEMMSymbolic(m, m)
		if err != nil {
			t.Fatal(err)
		}
		// The RABBIT-ordered matrix, tiled by its communities: labels
		// carried through the permutation, so each tile is one
		// community block (capped at 32 rows).
		rr := core.Rabbit(m)
		pm := m.PermuteSymmetric(rr.Perm)
		pinfo, err := kernels.SpGEMMSymbolic(pm, pm)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int32, len(rr.Communities.Of))
		for v, l := range rr.Communities.Of {
			labels[rr.Perm[v]] = l
		}
		commTiles := community.TilesFromCommunities(labels, 32)
		for _, line := range digestLineSizes {
			cases := []struct {
				name   string
				stream func(emit func(int64))
			}{
				{"spgemm-cluster-shards", SpGEMMCluster(m, m, info.RowNNZ, nil, line)},
				{"spgemm-cluster-rabbit", SpGEMMCluster(pm, pm, pinfo.RowNNZ, commTiles, line)},
				{"spmv-interleaved-1", SpMVCSRInterleaved(m, line, 1)},
				{"spmv-interleaved-8", SpMVCSRInterleaved(m, line, 8)},
				{"spmv-interleaved-64", SpMVCSRInterleaved(m, line, 64)},
				{"spmv-tiled-64", SpMVCSRTiled(m, line, 64)},
				{"spmv-tiled-all", SpMVCSRTiled(m, line, 0)},
				{"spmv-csc", SpMVCSC(m, line)},
			}
			for _, k := range cases {
				acc, sum := flatDigest(k.stream)
				fmt.Fprintf(&buf, "%s\t%s\t%d\t%d\t%s\n", mat.name, k.name, line, acc, sum)
			}
		}
	}
	checkDigestTable(t, "flat_digests.tsv", flatDigestHeader, 3, buf.Bytes())
}
