package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest returns a stable content hash of the matrix: shape, row offsets,
// column indices, and values, encoded little-endian and hashed with
// SHA-256. Two matrices have equal digests iff Equal reports true (up to
// hash collisions), independent of how they were constructed, which makes
// the digest a safe cache key for (matrix × technique) reordering results:
// every technique in this repository is a deterministic function of the
// CSR content, so digest equality implies permutation equality. For a
// valued matrix the hashed stream is its binary CSR encoding from byte 8
// on, so BinaryCSRBody.Digest finds the same value from an upload's bytes.
func (m *CSR) Digest() string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.NumRows))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.NumCols))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(m.ColIndices)))
	h.Write(hdr[:])

	// Encode slices through a reused chunk buffer so hashing a large
	// matrix does not allocate proportionally to nnz.
	const chunk = 16 * 1024
	buf := make([]byte, 0, 4*chunk)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, v := range m.RowOffsets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if len(buf) >= 4*chunk {
			flush()
		}
	}
	flush()
	for _, v := range m.ColIndices {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if len(buf) >= 4*chunk {
			flush()
		}
	}
	flush()
	for _, v := range m.Values {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		if len(buf) >= 4*chunk {
			flush()
		}
	}
	flush()
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
