package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sparse"
)

// FuzzReorderHandler feeds arbitrary bytes through the full HTTP handler as
// MatrixMarket uploads. The invariant is purely defensive: the handler
// never panics and always produces a well-formed HTTP status, no matter how
// mangled the upload. Limits are tiny so declared-size shedding (not
// timeouts) bounds the work per input.
func FuzzReorderHandler(f *testing.F) {
	seeds := [][]byte{
		// Valid minimal matrix.
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"),
		// Truncated: header only, size line only, missing entries.
		[]byte("%%MatrixMarket"),
		[]byte("%%MatrixMarket matrix coordinate real general\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"),
		// Malformed size and entry lines.
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 x\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n"),
		// Declared size far past the limits.
		[]byte("%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 0\n"),
		// Wrong banner, empty input, binary noise.
		[]byte("%%MatrixMarket matrix array real general\n2 2\n1.0\n"),
		[]byte(""),
		{0x00, 0xff, 0x7f, 0x0a, 0x25, 0x25},
		// Symmetric and pattern variants, including a diagonal entry.
		[]byte("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n"),
		[]byte("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	s := New(Config{
		Workers:      2,
		QueueDepth:   8,
		MaxBodyBytes: 1 << 16,
		MaxRows:      256,
		MaxEntries:   4096,
	})
	handler := s.Handler()
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost,
			"/reorder?technique=RABBIT&quality=off", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("empty response body for status %d", rec.Code)
		}
	})
}

// FuzzBinaryUpload feeds arbitrary bytes through the full HTTP handler as
// binary CSR uploads, which reorderd keys by the SHA-256 of their bytes
// and decodes only on a miss. The handler never panics, and it answers 200
// only for a body that sparse.ReadBinaryCSR accepts at exactly its
// declared length, with that matrix's digest. (Its name does not contain
// FuzzReorderHandler, so -fuzz=FuzzReorderHandler matches one target.)
func FuzzBinaryUpload(f *testing.F) {
	var buf bytes.Buffer
	m := testMatrix(0)
	if err := sparse.WriteBinaryCSR(&buf, m); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	with := func(off int, v byte) []byte {
		c := bytes.Clone(valid)
		c[off] = v
		return c
	}
	// 2^31 entries declared over a 30-byte body.
	lying := append(bytes.Clone(valid[:24]), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(lying[16:], 1<<31)
	// Row 0's first two column indices swapped, at the exact length.
	unsorted := bytes.Clone(valid)
	cols := 24 + 4*(int(m.NumRows)+1)
	copy(unsorted[cols:], valid[cols+4:cols+8])
	copy(unsorted[cols+4:], valid[cols:cols+4])
	for _, seed := range [][]byte{
		valid,
		append(bytes.Clone(valid), 0),
		valid[:len(valid)-1],
		with(6, 1),
		with(4, 2),
		lying,
		unsorted,
	} {
		f.Add(seed)
	}

	s := New(Config{
		Workers:      2,
		QueueDepth:   8,
		MaxBodyBytes: 1 << 16,
		MaxRows:      256,
		MaxEntries:   4096,
	})
	handler := s.Handler()
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost,
			"/reorder?technique=RABBIT&quality=off", bytes.NewReader(body))
		req.Header.Set("Content-Type", sparse.BinaryCSRContentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			m, err := sparse.ReadBinaryCSR(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("200 for a body ReadBinaryCSR refuses: %v", err)
			}
			if size := sparse.BinaryCSRSize(m); size != int64(len(body)) {
				t.Fatalf("200 for a %d-byte body whose header declares %d", len(body), size)
			}
			var out struct {
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("bad response JSON: %v", err)
			}
			if want := m.Digest(); out.Digest != want {
				t.Fatalf("response digest %s, decoded matrix digest %s", out.Digest, want)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("empty response body for status %d", rec.Code)
		}
	})
}
