package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/advisor"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// postBinary uploads body as binary CSR and returns the status, the body
// and the X-Reorderd-Owner header.
func postBinary(t *testing.T, client *http.Client, u string, body []byte) (int, string, string) {
	t.Helper()
	resp, err := client.Post(u, sparse.BinaryCSRContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header.Get("X-Reorderd-Owner")
}

// storeEntries reads store_entries from GET /ring.
func storeEntries(t *testing.T, client *http.Client, base string) int {
	t.Helper()
	resp, err := client.Get(base + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo struct {
		StoreEntries int `json:"store_entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	return topo.StoreEntries
}

// withByte returns a copy of body with body[off] set to v.
func withByte(body []byte, off int, v byte) []byte {
	c := bytes.Clone(body)
	c[off] = v
	return c
}

// unsortedBody encodes testMatrix(0) with the first two column indices of
// row 0 swapped: exactly as long as its header declares, yet not a CSR.
func unsortedBody(t *testing.T) []byte {
	t.Helper()
	m := testMatrix(0)
	body := binBody(t, m)
	cols := 24 + 4*(int(m.NumRows)+1)
	first := bytes.Clone(body[cols : cols+4])
	copy(body[cols:], body[cols+4:cols+8])
	copy(body[cols+4:], first)
	return body
}

// TestBinaryBodyKeyedByBytes: a binary upload is keyed by the SHA-256 of
// its body, so after a body B is stored, B with a trailing byte, with
// reserved flags set or with another version is refused with 400 on both
// endpoints and never answered from the store.
func TestBinaryBodyKeyedByBytes(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	body := binBody(t, testMatrix(0))
	if status, raw, _ := postBinary(t, client, ts.URL+"/reorder?technique=RCM", body); status != http.StatusOK {
		t.Fatalf("first upload: %d %s", status, raw)
	}
	for name, bad := range map[string][]byte{
		"trailing byte": append(bytes.Clone(body), 0),
		"flags":         withByte(body, 6, 1),
		"version 2":     withByte(body, 4, 2),
	} {
		for _, path := range []string{"/reorder", "/jobs"} {
			status, raw, _ := postBinary(t, client, ts.URL+path+"?technique=RCM", bad)
			if status != http.StatusBadRequest || strings.Contains(raw, `"cached":true`) || strings.Contains(raw, `"store_hit":true`) {
				t.Errorf("%s %s: %d %s, want 400", name, path, status, raw)
			}
		}
	}
	status, raw, _ := postBinary(t, client, ts.URL+"/reorder?technique=RCM", body)
	if status != http.StatusOK || !strings.Contains(raw, `"cached":true`) {
		t.Fatalf("B again: %d %s, want a cache hit", status, raw)
	}
}

// TestInvalidBinaryPayload: an exact-length body that Validate refuses
// passes the header check and is hashed, then fails its decode on the miss
// path: 400 on both endpoints and for technique=auto, with no store entry
// left behind, every time it is sent.
func TestInvalidBinaryPayload(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	bad := unsortedBody(t)
	before := storeEntries(t, client, ts.URL)
	for round := 0; round < 2; round++ {
		for _, q := range []string{"/reorder?technique=RCM", "/jobs?technique=RCM", "/reorder?technique=auto", "/jobs?technique=auto"} {
			status, raw, _ := postBinary(t, client, ts.URL+q, bad)
			if status != http.StatusBadRequest || !strings.Contains(raw, "not strictly sorted") {
				t.Errorf("round %d %s: %d %s, want 400 naming the unsorted row", round, q, status, raw)
			}
		}
	}
	if after := storeEntries(t, client, ts.URL); after != before {
		t.Fatalf("store_entries %d after the refused uploads, %d before", after, before)
	}
}

// TestForwardedBinaryBodyUndecoded: a non-owner peer relays a binary body
// without decoding it, so a payload that fails Validate is refused by its
// owner, whose 400 the entry peer relays.
func TestForwardedBinaryBodyUndecoded(t *testing.T) {
	checkGoroutines(t)
	tss := newPeerRing(t, 3, Config{Workers: 1})
	urls := make([]string, len(tss))
	for i, ts := range tss {
		urls[i] = ts.URL
	}
	bad := unsortedBody(t)
	body, err := sparse.CheckBinaryCSR(bad, sparse.MMLimits{})
	if err != nil {
		t.Fatal(err)
	}
	owner := newRing(urls[0], urls).owner(strings.TrimPrefix(body.Digest(), "sha256:"))
	entry := urls[0]
	if owner == entry {
		entry = urls[1]
	}
	client := tss[0].Client()
	status, raw, relayedBy := postBinary(t, client, entry+"/jobs?technique=RCM", bad)
	if status != http.StatusBadRequest || relayedBy != owner || !strings.Contains(raw, "not strictly sorted") {
		t.Fatalf("via %s: %d from %q %s, want the owner %s's 400", entry, status, relayedBy, raw, owner)
	}
	if n := storeEntries(t, client, owner); n != 0 {
		t.Fatalf("owner store_entries = %d after a refused payload", n)
	}
}

// TestBinaryHitAllocations: a hit on a binary upload allocates less than
// twice its body — the body read once into a buffer of its length, no
// decode, no re-encoding digest — for all three request classes.
func TestBinaryHitAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime's own allocations inflate TotalAlloc")
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	const hits = 20
	for _, name := range []string{"email-like", "road-dense", "kmer-short"} {
		entry, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		body := binBody(t, entry.Generate(gen.Small))
		post := func(target string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			req.Header.Set("Content-Type", sparse.BinaryCSRContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		// /reorder completes the job /jobs then finds done.
		for _, prime := range []string{"/reorder?technique=RABBIT%2B%2B", "/reorder?technique=auto"} {
			if rec := post(prime); rec.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", name, prime, rec.Code, rec.Body)
			}
		}
		for _, c := range []struct{ target, hit string }{
			{"/reorder?technique=RABBIT%2B%2B", `"cached":true`},
			{"/jobs?technique=RABBIT%2B%2B", `"store_hit":true`},
			{"/reorder?technique=auto", `"cached":true`},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < hits; i++ {
				if rec := post(c.target); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(c.hit)) {
					t.Fatalf("%s %s: %d, want a hit", name, c.target, rec.Code)
				}
			}
			runtime.ReadMemStats(&after)
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / hits / float64(len(body))
			t.Logf("%s %s: %.2fx a %d-byte body per hit", name, c.target, ratio, len(body))
			if ratio >= 2 {
				t.Errorf("%s %s: a hit allocates %.2fx its %d-byte body, want < 2x", name, c.target, ratio, len(body))
			}
		}
	}
}

// TestStalledBodyAllocatesWhatArrives: a request that declares a body of
// MaxBodyBytes and sends only a binary CSR header before its client goes
// away raises TotalAlloc by about the 1 MiB first buffer, not by the
// declared size, and gets 400.
func TestStalledBodyAllocatesWhatArrives(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	declared := s.cfg.MaxBodyBytes
	sent := binBody(t, testMatrix(0))[:24]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/reorder?technique=RCM",
		io.MultiReader(bytes.NewReader(sent), iotest.ErrReader(errors.New("client went away"))))
	req.Header.Set("Content-Type", sparse.BinaryCSRContentType)
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if got := int64(after.TotalAlloc - before.TotalAlloc); got >= declared/8 {
		t.Fatalf("%d bytes sent of %d declared allocated %d bytes", len(sent), declared, got)
	}
}

// TestReadBodyLengths: readBody returns every body whole, at its declared
// length exactly, across the 1 MiB first buffer and the doublings past it,
// and a chunked body through io.ReadAll.
func TestReadBodyLengths(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	data := make([]byte, 5<<20+3)
	for i := range data {
		data[i] = byte(i * 131 >> 3)
	}
	for _, n := range []int{0, 1, 1<<20 - 1, 1 << 20, 1<<20 + 1, 2<<20 + 7, len(data)} {
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest(http.MethodPost, "/reorder", bytes.NewReader(data[:n]))
			if !declared {
				req.ContentLength = -1
			}
			raw, err := s.readBody(httptest.NewRecorder(), req)
			if err != nil {
				t.Fatalf("%d bytes (declared %v): %v", n, declared, err)
			}
			if !bytes.Equal(raw, data[:n]) {
				t.Fatalf("%d bytes (declared %v): read %d different bytes", n, declared, len(raw))
			}
			if declared && cap(raw) != n {
				t.Errorf("%d declared bytes read into a buffer of %d", n, cap(raw))
			}
		}
	}
}

// TestWritePermutedMatchesEncodingJSON: writePermuted, handed a response
// without its permutation and the permutation beside it, writes exactly
// what json.NewEncoder(w).Encode writes for the response with the
// permutation set, and nothing when that fails.
func TestWritePermutedMatchesEncodingJSON(t *testing.T) {
	big := make(sparse.Permutation, 1<<16)
	for i := range big {
		big[i] = int32(len(big) - 1 - i)
	}
	quality := &qualityStats{Insularity: 0.75, Modularity: 1e-7, DegreeSkew: 12.5, Communities: 3}
	adv := &advisorInfo{Model: "model <&> v1", Confidence: 2.0 / 3, Ranked: []advisor.Scored{{Technique: "RABBIT++", Score: -1.25}, {Technique: "DBG", Score: 3}}}
	var s *Server
	// check writes v, whose permutation is nil, with perm, and set(perm)
	// puts perm into v for encoding/json.
	check := func(name string, v any, perm sparse.Permutation, set func(sparse.Permutation)) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.writePermuted(rec, http.StatusOK, v, perm)
		set(perm)
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(v)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: writePermuted wrote\n%.300s\nencoding/json wrote\n%.300s", name, rec.Body, want.String())
		}
	}
	for _, perm := range []sparse.Permutation{nil, {}, {0}, {2, 0, 1}, big} {
		for _, extra := range []struct {
			q *qualityStats
			a *advisorInfo
		}{{}, {q: quality}, {a: adv}, {q: quality, a: adv}} {
			r := reorderResponse{
				Technique: "RABBIT++", Matrix: `a<b>&c "permutation":null`, Rows: int32(len(perm)), Cols: int32(len(perm)), NNZ: 1 << 20,
				Digest: "sha256:" + strings.Repeat("ab", 32), Cached: len(perm)%2 == 0, ElapsedMS: 0.123456789, ComputeMS: 1e21,
				Quality: extra.q, Advisor: extra.a,
			}
			res := r
			check("reorder", &r, perm, func(p sparse.Permutation) { r.Permutation = p })
			job := jobResponse{JobID: "id", Status: jobDone, Technique: "RCM++", Digest: r.Digest, Owner: "http://peer", StoreHit: true, CompletedMS: 4.5, Result: &res}
			check("job", &job, perm, func(p sparse.Permutation) { res.Permutation = p })
		}
	}
	for _, job := range []jobResponse{
		{JobID: "id", Status: jobQueued, Technique: "RCM", Digest: "sha256:00"},
		{JobID: "id", Status: jobFailed, Technique: "RCM", Error: `serve: <failed> & "permutation":null`},
	} {
		check("job without result", &job, nil, func(sparse.Permutation) {})
	}
	nan := reorderResponse{Technique: "RCM", Quality: &qualityStats{Modularity: math.NaN()}}
	check("NaN quality", &nan, sparse.Permutation{1, 0}, func(p sparse.Permutation) { nan.Permutation = p })
}
