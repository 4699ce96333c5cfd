package sparse

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
)

// wireCorpus builds the pathological shape set the codec must survive:
// empty, empty-rows-only, single entry, rectangular, dense block, negative
// and non-finite values, and a duplicate-heavy COO assembly.
func wireCorpus() map[string]*CSR {
	dup := NewCOO(6, 6, 32)
	for i := 0; i < 4; i++ {
		dup.Add(1, 3, 0.25) // merges into one entry by summation
		dup.AddSym(2, int32(i), float32(i))
	}
	dense := NewCOO(5, 5, 25)
	for i := int32(0); i < 5; i++ {
		for j := int32(0); j < 5; j++ {
			dense.Add(i, j, float32(i*5+j)-12)
		}
	}
	specials := NewCOO(3, 3, 4)
	specials.Add(0, 0, float32(math.Inf(1)))
	specials.Add(1, 1, float32(math.NaN()))
	specials.Add(2, 0, -0.0)
	single := NewCOO(4, 7, 1)
	single.Add(2, 6, -1.5)
	return map[string]*CSR{
		"empty-0x0":    NewCOO(0, 0, 0).ToCSR(),
		"empty-rows":   NewCOO(9, 9, 0).ToCSR(),
		"single-entry": single.ToCSR(),
		"dense-5x5":    dense.ToCSR(),
		"dup-heavy":    dup.ToCSR(),
		"specials":     specials.ToCSR(),
	}
}

// TestBinaryCSRGoldenBytes pins the exact encoding of a tiny matrix so
// the wire format cannot drift silently: any byte-level change to the
// header or section layout breaks this test.
func TestBinaryCSRGoldenBytes(t *testing.T) {
	coo := NewCOO(2, 3, 3)
	coo.Add(0, 1, 1.5)
	coo.Add(1, 0, -2)
	coo.Add(1, 2, 0.5)
	m := coo.ToCSR()

	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	golden := "" +
		"43535242" + // "CSRB"
		"0100" + "0000" + // version 1, flags 0
		"02000000" + "03000000" + // rows 2, cols 3
		"0300000000000000" + // nnz 3
		"00000000" + "01000000" + "03000000" + // row offsets 0,1,3
		"01000000" + "00000000" + "02000000" + // col indices 1,0,2
		"0000c03f" + "000000c0" + "0000003f" // 1.5, -2, 0.5
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("encoding drifted:\ngot  %s\nwant %s", got, golden)
	}
	if want := BinaryCSRSize(m); int64(buf.Len()) != want {
		t.Fatalf("BinaryCSRSize = %d, encoded %d bytes", want, buf.Len())
	}

	back, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatal("golden bytes did not decode back to the source matrix")
	}
}

// TestBinaryCSRRoundTripCorpus: encode→decode is the identity (exact value
// bits, same digest) over the pathological corpus, and agrees with a
// MatrixMarket round trip of the same matrix where MM can represent it
// (finite values; MM text goes through float64 formatting, so the
// comparison is on the binary path's own invariants plus digest equality
// with the in-memory original).
func TestBinaryCSRRoundTripCorpus(t *testing.T) {
	for name, m := range wireCorpus() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinaryCSR(&buf, m); err != nil {
				t.Fatal(err)
			}
			if int64(buf.Len()) != BinaryCSRSize(m) {
				t.Fatalf("encoded %d bytes, BinaryCSRSize says %d", buf.Len(), BinaryCSRSize(m))
			}
			back, err := ReadBinaryCSR(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if back.NumRows != m.NumRows || back.NumCols != m.NumCols || !back.EqualPattern(m) {
				t.Fatal("round trip changed the pattern")
			}
			// NaN != NaN under Equal; compare value bits exactly instead.
			for i := range m.Values {
				if math.Float32bits(back.Values[i]) != math.Float32bits(m.Values[i]) {
					t.Fatalf("value %d bits changed: %x -> %x", i,
						math.Float32bits(m.Values[i]), math.Float32bits(back.Values[i]))
				}
			}
			if back.Digest() != m.Digest() {
				t.Fatal("round trip changed the content digest")
			}
		})
	}
}

// TestBinaryCSRMatrixMarketEquivalence: parsing the same matrix from
// MatrixMarket text and from binary CSR yields equal matrices and equal
// digests — the property that lets reorderd's digest-keyed caches treat
// the two upload formats interchangeably.
func TestBinaryCSRMatrixMarketEquivalence(t *testing.T) {
	for name, m := range wireCorpus() {
		if name == "specials" {
			continue // MatrixMarket text cannot carry NaN/Inf portably
		}
		t.Run(name, func(t *testing.T) {
			var mm, bin bytes.Buffer
			if err := WriteMatrixMarket(&mm, m); err != nil {
				t.Fatal(err)
			}
			if err := WriteBinaryCSR(&bin, m); err != nil {
				t.Fatal(err)
			}
			fromMM, err := ReadMatrixMarket(bytes.NewReader(mm.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := ReadBinaryCSR(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !fromMM.Equal(fromBin) {
				t.Fatal("MatrixMarket and binary parses disagree")
			}
			if fromMM.Digest() != fromBin.Digest() {
				t.Fatal("digest differs across upload formats")
			}
		})
	}
}

// TestBinaryCSRTruncation: every proper prefix of a valid stream fails
// with ErrTruncated, never a panic or a silently short matrix.
func TestBinaryCSRTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, wireCorpus()["dense-5x5"]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadBinaryCSR(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrTruncated", cut, len(full), err)
		}
	}
}

// TestBinaryCSRCorruptHeader: the typed errors distinguish wrong magic,
// wrong version, reserved flags, and size-limit violations.
func TestBinaryCSRCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, wireCorpus()["dense-5x5"]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := func(off int, b byte) []byte {
		c := append([]byte(nil), full...)
		c[off] = b
		return c
	}

	if _, err := ReadBinaryCSR(bytes.NewReader(corrupt(0, 'X'))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := ReadBinaryCSR(bytes.NewReader(corrupt(4, 9))); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := ReadBinaryCSR(bytes.NewReader(corrupt(6, 1))); err == nil || !strings.Contains(err.Error(), "reserved flags") {
		t.Fatalf("nonzero flags: got %v", err)
	}
	if _, err := ReadBinaryCSRLimited(bytes.NewReader(full), MMLimits{MaxRows: 2}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("rows over limit: got %v", err)
	}
	if _, err := ReadBinaryCSRLimited(bytes.NewReader(full), MMLimits{MaxEntries: 3}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("entries over limit: got %v", err)
	}
	// Payload corruption (an out-of-range column index) is caught by
	// Validate, not trusted through.
	bad := append([]byte(nil), full...)
	bad[24+4*6] = 0xff // first column-index word -> 255, cols is 5
	if _, err := ReadBinaryCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt column index decoded without error")
	}
}

// TestBinaryCSRLyingHeader: a header declaring a huge nnz over a tiny body
// fails with ErrTruncated without allocating nnz-proportional memory (the
// section readers grow with bytes actually read).
func TestBinaryCSRLyingHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, wireCorpus()["single-entry"]); err != nil {
		t.Fatal(err)
	}
	lie := buf.Bytes()[:binaryCSRHeaderSize]
	lie = append(append([]byte(nil), lie...), 0, 0, 0, 0)
	lie[16], lie[17], lie[18], lie[19] = 0xff, 0xff, 0xff, 0x7e // nnz just under MaxInt32
	if _, err := ReadBinaryCSR(bytes.NewReader(lie)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying header: got %v, want ErrTruncated", err)
	}
}

// TestBinaryCSRBodyDigest: a body CheckBinaryCSR accepts hashes to the
// Digest of the matrix it encodes without being decoded.
func TestBinaryCSRBodyDigest(t *testing.T) {
	for name, m := range wireCorpus() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinaryCSR(&buf, m); err != nil {
				t.Fatal(err)
			}
			body, err := CheckBinaryCSR(buf.Bytes(), MMLimits{})
			if err != nil {
				t.Fatal(err)
			}
			if body.Rows != m.NumRows || body.Cols != m.NumCols {
				t.Fatalf("body is %dx%d, matrix %dx%d", body.Rows, body.Cols, m.NumRows, m.NumCols)
			}
			if got, want := body.Digest(), m.Digest(); got != want {
				t.Fatalf("body digest %s, matrix digest %s", got, want)
			}
		})
	}
}

// TestBinaryCSRSentinels: every malformed stream fails with the decoder's
// sentinel error. Header faults fail the same way in CheckBinaryCSR and
// ReadBinaryCSR, which share one header check; length faults are
// CheckBinaryCSR's, which holds the whole body.
func TestBinaryCSRSentinels(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryCSR(&buf, wireCorpus()["dense-5x5"]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	with := func(off int, word ...byte) []byte {
		c := bytes.Clone(full)
		copy(c[off:], word)
		return c
	}
	header := []struct {
		name string
		body []byte
		want error
	}{
		{"magic", with(0, 'X'), ErrBadMagic},
		{"version 2", with(4, 2), ErrBadVersion},
		{"version 0", with(4, 0), ErrBadVersion},
		{"flags", with(6, 1), ErrBadHeader},
		{"negative rows", with(8, 0xff, 0xff, 0xff, 0xff), ErrBadHeader},
		{"negative cols", with(12, 0xfb, 0xff, 0xff, 0xff), ErrBadHeader},
		{"nnz past int32", with(16, 0, 0, 0, 0x80), ErrBadHeader},
		{"lying nnz", with(16, 0xff, 0xff, 0xff, 0x7e), ErrTruncated},
		{"header cut", full[:binaryCSRHeaderSize-1], ErrTruncated},
	}
	for _, tc := range header {
		if _, err := CheckBinaryCSR(tc.body, MMLimits{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: CheckBinaryCSR got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ReadBinaryCSR(bytes.NewReader(tc.body)); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadBinaryCSR got %v, want %v", tc.name, err, tc.want)
		}
	}
	length := []struct {
		name   string
		body   []byte
		limits MMLimits
		want   error
	}{
		{"short by one", full[:len(full)-1], MMLimits{}, ErrTruncated},
		{"trailing byte", append(bytes.Clone(full), 0), MMLimits{}, ErrTrailingBytes},
		{"nnz one over", with(16, 26), MMLimits{}, ErrTruncated},
		{"nnz one under", with(16, 24), MMLimits{}, ErrTrailingBytes},
		{"rows one under", with(8, 4), MMLimits{}, ErrTrailingBytes},
		{"entries over limit", full, MMLimits{MaxEntries: 24}, ErrTooLarge},
	}
	for _, tc := range length {
		if _, err := CheckBinaryCSR(tc.body, tc.limits); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// An exact-length body passes the check; Validate refuses its payload
	// only when it is decoded.
	unsorted := with(24+4*6, 1, 0, 0, 0, 0, 0, 0, 0)
	if _, err := CheckBinaryCSR(unsorted, MMLimits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryCSR(bytes.NewReader(unsorted)); err == nil || !strings.Contains(err.Error(), "not strictly sorted") {
		t.Fatalf("unsorted columns: ReadBinaryCSR got %v", err)
	}
}

// FuzzBinaryCSRRoundTrip drives the decoder with arbitrary bytes (it must
// reject or produce a Validate-clean matrix, never panic) and, when the
// input does decode, re-encodes and checks the canonical-bytes property:
// decode(encode(decode(b))) is byte-identical to encode(decode(b)) and
// preserves the digest.
func FuzzBinaryCSRRoundTrip(f *testing.F) {
	for _, m := range wireCorpus() {
		var buf bytes.Buffer
		if err := WriteBinaryCSR(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CSRB"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n"))
	f.Add([]byte{})

	limits := MMLimits{MaxRows: 512, MaxCols: 512, MaxEntries: 1 << 14}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinaryCSRLimited(bytes.NewReader(data), limits)
		// CheckBinaryCSR agrees with the stream decoder on the header and
		// the length, except that it refuses what follows the declared
		// sections, and its body digest is the decoded matrix's.
		body, cerr := CheckBinaryCSR(data, limits)
		switch {
		case cerr == nil && errors.Is(err, ErrTruncated):
			t.Fatalf("CheckBinaryCSR accepted a body ReadBinaryCSRLimited finds short: %v", err)
		case cerr == nil && err == nil && body.Digest() != m.Digest():
			t.Fatal("the body digest and the decoded matrix's Digest disagree")
		case cerr != nil && err == nil && !errors.Is(cerr, ErrTrailingBytes):
			t.Fatalf("CheckBinaryCSR refused a stream ReadBinaryCSRLimited decodes: %v", cerr)
		}
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("decoder returned an invalid matrix: %v", verr)
		}
		var enc bytes.Buffer
		if err := WriteBinaryCSR(&enc, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadBinaryCSRLimited(bytes.NewReader(enc.Bytes()), limits)
		if err != nil {
			t.Fatalf("decode of canonical re-encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteBinaryCSR(&enc2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("encoding is not canonical across a round trip")
		}
		if back.Digest() != m.Digest() {
			t.Fatal("round trip changed the digest")
		}
	})
}
