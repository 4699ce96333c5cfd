package sparse

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary CSR wire format ("CSRB"), the upload format reorderd negotiates
// via Content-Type to kill the MatrixMarket text-parsing tax: a fixed
// 24-byte header followed by the three CSR sections verbatim,
// little-endian throughout.
//
//	offset  size            field
//	0       4               magic "CSRB" (0x43 0x53 0x52 0x42)
//	4       2               version, currently 1 (uint16)
//	6       2               flags, must be 0 (reserved)
//	8       4               rows (int32, >= 0)
//	12      4               cols (int32, >= 0)
//	16      8               nnz (uint64)
//	24      4*(rows+1)      row offsets (int32 each)
//	...     4*nnz           column indices (int32 each)
//	...     4*nnz           values (IEEE-754 float32 bits each)
//
// From byte 8 on, a stream is byte for byte what Digest hashes, so a
// matrix round-tripped through this format keeps its content digest, and
// a body held in memory hashes to that digest without being decoded
// (BinaryCSRBody.Digest) — the property that lets reorderd key a binary
// upload by its bytes and share its digest-keyed caches with the
// MatrixMarket path. Every reader checks the header the same way
// (parseBinaryCSRHeader) and validates the decoded matrix with Validate,
// so malformed offsets, out-of-range columns, or unsorted rows are
// rejected, not propagated.

// BinaryCSRContentType is the media type reorderd accepts for binary CSR
// uploads; any other Content-Type falls back to MatrixMarket text.
const BinaryCSRContentType = "application/x-binary-csr"

// BinaryCSRVersion is the format version this package reads and writes.
const BinaryCSRVersion = 1

// binaryCSRMagic is the 4-byte file signature.
const binaryCSRMagic = "CSRB"

// binaryCSRHeaderSize is the fixed byte length of the header.
const binaryCSRHeaderSize = 24

// Typed decode errors. ErrTruncated wraps every short read so callers can
// distinguish "cut off mid-stream" from structural corruption.
var (
	// ErrBadMagic is returned when the stream does not start with the
	// "CSRB" signature — the body is not binary CSR at all.
	ErrBadMagic = errors.New("sparse: not a binary CSR stream (bad magic)")
	// ErrBadVersion is returned for a version other than BinaryCSRVersion.
	ErrBadVersion = errors.New("sparse: unsupported binary CSR version")
	// ErrBadHeader is returned for a header with reserved flags set,
	// negative dimensions, or an nnz past int32 indexing.
	ErrBadHeader = errors.New("sparse: malformed binary CSR header")
	// ErrTruncated is returned when the stream ends before the
	// header-declared section lengths are satisfied.
	ErrTruncated = errors.New("sparse: truncated binary CSR stream")
	// ErrTrailingBytes is returned by CheckBinaryCSR for a body longer
	// than its header declares.
	ErrTrailingBytes = errors.New("sparse: binary CSR body runs past its declared sections")
)

// BinaryCSRSize returns the exact encoded length of the matrix in bytes:
// the header plus 4 bytes per row offset, column index, and value. Clients
// use it for Content-Length and for wire-cost accounting.
func BinaryCSRSize(m *CSR) int64 {
	return binaryCSRHeaderSize + 4*int64(len(m.RowOffsets)) + 8*int64(len(m.ColIndices))
}

// WriteBinaryCSR encodes the matrix in the binary CSR wire format. The
// encoding is canonical: one matrix has exactly one byte representation,
// so equal matrices produce equal streams.
func WriteBinaryCSR(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [binaryCSRHeaderSize]byte
	copy(hdr[0:4], binaryCSRMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], BinaryCSRVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(m.NumRows))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(m.NumCols))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(m.ColIndices)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for _, v := range m.RowOffsets {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, v := range m.ColIndices {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, v := range m.Values {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinaryCSR decodes a binary CSR stream without size limits; see
// ReadBinaryCSRLimited for the variant network-facing callers must use.
// The decoded matrix is validated (Validate), so the result upholds every
// CSR invariant or an error is returned.
func ReadBinaryCSR(r io.Reader) (*CSR, error) {
	return ReadBinaryCSRLimited(r, MMLimits{})
}

// ReadBinaryCSRLimited decodes a binary CSR stream, rejecting
// header-declared sizes beyond the limits with an ErrTooLarge-wrapping
// error before any dimension-proportional allocation — the same contract
// as ReadMatrixMarketLimited. Short streams fail with ErrTruncated;
// allocation tracks bytes actually read, so an absurd declared size in a
// tiny body cannot force a large allocation even with zero limits. It
// reads one matrix and leaves whatever follows it in r unread.
func ReadBinaryCSRLimited(r io.Reader, limits MMLimits) (*CSR, error) {
	var hdr [binaryCSRHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	h, err := parseBinaryCSRHeader(hdr[:], limits)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1<<16)
	rowOffsets, err := readInt32Section(r, buf, int(h.rows)+1, "row offsets")
	if err != nil {
		return nil, err
	}
	colIndices, err := readInt32Section(r, buf, h.nnz, "column indices")
	if err != nil {
		return nil, err
	}
	values, err := readFloat32Section(r, buf, h.nnz, "values")
	if err != nil {
		return nil, err
	}
	m := &CSR{
		NumRows:    h.rows,
		NumCols:    h.cols,
		RowOffsets: rowOffsets,
		ColIndices: colIndices,
		Values:     values,
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: binary CSR payload invalid: %w", err)
	}
	return m, nil
}

// binaryCSRHeader is a header parseBinaryCSRHeader accepted.
type binaryCSRHeader struct {
	rows, cols int32
	nnz        int
}

// parseBinaryCSRHeader checks the fixed header — magic, version, reserved
// flags, signs and the limits — for every reader of the format.
func parseBinaryCSRHeader(hdr []byte, limits MMLimits) (binaryCSRHeader, error) {
	if string(hdr[0:4]) != binaryCSRMagic {
		return binaryCSRHeader{}, fmt.Errorf("%w: got % x", ErrBadMagic, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != BinaryCSRVersion {
		return binaryCSRHeader{}, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, BinaryCSRVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return binaryCSRHeader{}, fmt.Errorf("%w: reserved flags 0x%04x must be 0", ErrBadHeader, f)
	}
	rows := int32(binary.LittleEndian.Uint32(hdr[8:12]))
	cols := int32(binary.LittleEndian.Uint32(hdr[12:16]))
	nnz64 := binary.LittleEndian.Uint64(hdr[16:24])
	if rows < 0 || cols < 0 {
		return binaryCSRHeader{}, fmt.Errorf("%w: negative dimensions %dx%d", ErrBadHeader, rows, cols)
	}
	if nnz64 > math.MaxInt32 {
		return binaryCSRHeader{}, fmt.Errorf("%w: nnz %d overflows int32 indexing", ErrBadHeader, nnz64)
	}
	nnz := int(nnz64)
	if err := limits.check(rows, cols, nnz); err != nil {
		return binaryCSRHeader{}, err
	}
	return binaryCSRHeader{rows: rows, cols: cols, nnz: nnz}, nil
}

// BinaryCSRBody is a whole binary CSR stream held in memory that
// CheckBinaryCSR accepted: its dimensions and its digest are known
// without decoding its sections, which is ReadBinaryCSR's job.
type BinaryCSRBody struct {
	Rows int32 // declared row count
	Cols int32 // declared column count
	raw  []byte
}

// CheckBinaryCSR checks a whole binary CSR stream held in memory without
// decoding its sections: the header, as ReadBinaryCSRLimited checks it,
// and its length, which must be exactly what the header declares. A
// shorter body fails with ErrTruncated, a longer one with
// ErrTrailingBytes. The result refers to b, which must not change.
func CheckBinaryCSR(b []byte, limits MMLimits) (BinaryCSRBody, error) {
	if len(b) < binaryCSRHeaderSize {
		return BinaryCSRBody{}, fmt.Errorf("%w: %d-byte body holds no header", ErrTruncated, len(b))
	}
	h, err := parseBinaryCSRHeader(b, limits)
	if err != nil {
		return BinaryCSRBody{}, err
	}
	// At most 24 + 4·2³¹ + 8·(2³¹−1) bytes: no int64 overflow.
	size := binaryCSRHeaderSize + 4*(int64(h.rows)+1) + 8*int64(h.nnz)
	switch n := int64(len(b)); {
	case n < size:
		return BinaryCSRBody{}, fmt.Errorf("%w: %d-byte body, header declares %d", ErrTruncated, n, size)
	case n > size:
		return BinaryCSRBody{}, fmt.Errorf("%w: %d-byte body, header declares %d", ErrTrailingBytes, n, size)
	}
	return BinaryCSRBody{Rows: h.rows, Cols: h.cols, raw: b}, nil
}

// Digest returns what (*CSR).Digest returns for the matrix the body
// encodes: the SHA-256 of the body from byte 8 on, which is the stream
// that method hashes, so no section is decoded or re-encoded.
func (b BinaryCSRBody) Digest() string {
	sum := sha256.Sum256(b.raw[8:])
	return "sha256:" + hex.EncodeToString(sum[:])
}

// readInt32Section decodes n little-endian int32 words through buf,
// growing the output only as bytes actually arrive so a lying header
// cannot force an n-proportional allocation from a short stream.
func readInt32Section(r io.Reader, buf []byte, n int, section string) ([]int32, error) {
	out := make([]int32, 0, min(n, 1<<20))
	for len(out) < n {
		want := min((n-len(out))*4, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: %s at word %d of %d: %v", ErrTruncated, section, len(out), n, err)
		}
		for i := 0; i < want; i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i:])))
		}
	}
	return out, nil
}

// readFloat32Section is readInt32Section for IEEE-754 float32 words.
func readFloat32Section(r io.Reader, buf []byte, n int, section string) ([]float32, error) {
	out := make([]float32, 0, min(n, 1<<20))
	for len(out) < n {
		want := min((n-len(out))*4, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: %s at word %d of %d: %v", ErrTruncated, section, len(out), n, err)
		}
		for i := 0; i < want; i += 4 {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[i:])))
		}
	}
	return out, nil
}
