package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// checkGoroutines registers a teardown that fails the test if goroutines
// leaked relative to the count at call time. Brief transients (HTTP
// keep-alive reapers, exiting workers) get a grace period to wind down.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			t.Errorf("goroutine leak: %d at teardown, %d at start", n, base)
		}
	})
}

// testMatrix builds a small two-clique community matrix; salt perturbs one
// value so different salts produce different digests (defeating the cache
// and the singleflight when a test needs distinct jobs).
func testMatrix(salt float32) *sparse.CSR {
	coo := sparse.NewCOO(8, 8, 64)
	for _, block := range [][2]int32{{0, 4}, {4, 8}} {
		for i := block[0]; i < block[1]; i++ {
			for j := i + 1; j < block[1]; j++ {
				coo.AddSym(i, j, 1)
			}
		}
	}
	coo.AddSym(3, 4, 1+salt)
	return coo.ToCSR()
}

func mmBody(t *testing.T, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func reorderURL(base string, params map[string]string) string {
	v := url.Values{}
	for k, val := range params {
		v.Set(k, val)
	}
	return base + "/reorder?" + v.Encode()
}

func doReorder(t *testing.T, client *http.Client, u string, body []byte) (int, reorderResponse, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = client.Post(u, "text/plain", bytes.NewReader(body))
	} else {
		resp, err = client.Get(u)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out reorderResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad response JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

func TestReorderHappyPathAndCacheHit(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{Workers: 2})
	body := mmBody(t, testMatrix(0))

	status, first, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{"technique": "RABBIT"}), body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if first.Cached {
		t.Fatal("cold request reported cached=true")
	}
	if err := check.ValidPermutation(first.Permutation); err != nil {
		t.Fatal(err)
	}
	if len(first.Permutation) != 8 {
		t.Fatalf("permutation length %d", len(first.Permutation))
	}
	if first.Quality == nil {
		t.Fatal("missing quality metrics")
	}
	if first.Quality.Communities < 2 {
		t.Fatalf("expected >=2 communities, got %d", first.Quality.Communities)
	}
	if !strings.HasPrefix(first.Digest, "sha256:") {
		t.Fatalf("bad digest %q", first.Digest)
	}

	status, second, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{"technique": "RABBIT"}), body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !second.Cached {
		t.Fatal("identical request missed the cache")
	}
	if fmt.Sprint(first.Permutation) != fmt.Sprint(second.Permutation) {
		t.Fatal("cache hit returned a different permutation")
	}
	hits, misses := s.Metrics()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}

	// The exposition surface reflects the same counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"reorderd_cache_hits_total 1",
		"reorderd_cache_misses_total 1",
		`reorderd_jobs_total{technique="RABBIT"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestReorderPlusInTechniqueName: an unencoded technique=RABBIT++ query
// (where + decodes to space) still resolves.
func TestReorderPlusInTechniqueName(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	status, out, raw := doReorder(t, ts.Client(), ts.URL+"/reorder?technique=RABBIT++", mmBody(t, testMatrix(0)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out.Technique != "RABBIT++" {
		t.Fatalf("technique %q", out.Technique)
	}
}

// TestDeterminismAcrossWorkersAndCacheState: the permutation for a (digest,
// technique) pair is byte-identical whether computed cold, served hot, or
// computed by pools of different sizes.
func TestDeterminismAcrossWorkersAndCacheState(t *testing.T) {
	checkGoroutines(t)
	body := mmBody(t, testMatrix(0))
	var perms []string
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		for pass := 0; pass < 2; pass++ {
			status, out, raw := doReorder(t, ts.Client(),
				reorderURL(ts.URL, map[string]string{"technique": "RABBIT++"}), body)
			if status != http.StatusOK {
				t.Fatalf("workers=%d pass=%d status %d: %s", workers, pass, status, raw)
			}
			if wantCached := pass == 1; out.Cached != wantCached {
				t.Fatalf("workers=%d pass=%d cached=%v", workers, pass, out.Cached)
			}
			perms = append(perms, fmt.Sprint(out.Permutation))
		}
	}
	for i := 1; i < len(perms); i++ {
		if perms[i] != perms[0] {
			t.Fatalf("permutation %d diverged:\n%s\nvs\n%s", i, perms[i], perms[0])
		}
	}
}

// TestQualityBlockMatchesInProcess: a /reorder miss with quality on
// returns the in-process permutation of the technique it ran, and a
// quality block equal to core.Analyze over plain RABBIT's communities,
// whether the job shared its own detection with the quality step (the
// RABBIT family) or the quality step detected on its own (BOBA, and
// whatever technique=auto picks). The sweep runs once on a fresh server
// per technique (quality cache cold) and once on one server for all, where
// every job after the first finds the quality block cached; auto is left
// out there, as its pick's result would already be cached.
func TestQualityBlockMatchesInProcess(t *testing.T) {
	checkGoroutines(t)
	m := gen.PlantedPartition{Nodes: 600, Communities: 8, AvgDegree: 8, Mu: 0.15}.Generate(7)
	body := mmBody(t, m)
	cs := core.Analyze(m, core.Rabbit(m).Communities)
	want := qualityStats{Insularity: cs.Insularity, Modularity: cs.Modularity, DegreeSkew: cs.Skew, Communities: cs.Communities}
	rabbitHubGroup := reorder.RabbitVariant{Opts: core.Options{Hub: core.HubGroup}}
	resolver := func(name string) (reorder.OrdererCtx, error) {
		if name == rabbitHubGroup.Name() {
			return rabbitHubGroup, nil
		}
		return reorder.ByNameCtx(name)
	}

	_, sharedTS := newTestServer(t, Config{Workers: 1, Resolver: resolver})
	for _, sweep := range []string{"cold", "cached"} {
		for _, techName := range []string{"RABBIT", "RABBIT++", rabbitHubGroup.Name(), "BOBA", "auto"} {
			if sweep == "cached" && techName == "auto" {
				continue
			}
			t.Run(sweep+"/"+techName, func(t *testing.T) {
				ts := sharedTS
				if sweep == "cold" {
					_, ts = newTestServer(t, Config{Workers: 1, Resolver: resolver})
				}
				qualityOn(t, ts, m, body, techName, resolver, want)
			})
		}
	}
}

// qualityOn sends one quality-on /reorder miss for techName and checks
// its permutation against the in-process one and its quality block
// against want.
func qualityOn(t *testing.T, ts *httptest.Server, m *sparse.CSR, body []byte, techName string, resolver func(string) (reorder.OrdererCtx, error), want qualityStats) {
	t.Helper()
	status, out, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{"technique": techName}), body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if out.Cached {
		t.Fatal("miss reported cached=true")
	}
	ran := techName
	if techName == "auto" {
		ran = advisor.Advise(m).Best()
		if out.Technique != ran {
			t.Fatalf("auto ran %s, the advisor picks %s", out.Technique, ran)
		}
	}
	tech, err := resolver(ran)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tech.OrderCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Permutation, p) {
		t.Fatalf("served %s permutation differs from the in-process one", ran)
	}
	if out.Quality == nil || *out.Quality != want {
		t.Fatalf("quality block %+v, want %+v", out.Quality, want)
	}
}

// TestDeadlineCancelsMidRabbit: a 10ms-deadline request against a RABBIT
// job on a large corpus matrix must come back with a deadline error fast —
// the job's merge loop observes cancellation — rather than blocking until
// the reordering finishes. The quality-on RABBIT++ case is the one whose
// single detection would feed both the ordering and the quality block.
func TestDeadlineCancelsMidRabbit(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})

	// Warm the generated matrix (and nothing else: ORIGINAL is trivial and
	// quality=off skips community detection) so the timed requests below
	// measure reordering, not corpus generation.
	status, _, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{
		"matrix": "soc-tight-1", "technique": "ORIGINAL", "quality": "off",
	}), nil)
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", status, raw)
	}

	for _, tc := range []struct{ technique, quality string }{
		{"RABBIT", "off"},
		{"RABBIT++", "on"},
	} {
		start := time.Now()
		status, _, raw = doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{
			"matrix": "soc-tight-1", "technique": tc.technique, "quality": tc.quality, "timeout_ms": "10",
		}), nil)
		elapsed := time.Since(start)
		if status != http.StatusGatewayTimeout {
			t.Fatalf("%s quality=%s: status %d (elapsed %v): %s", tc.technique, tc.quality, status, elapsed, raw)
		}
		if !strings.Contains(raw, context.DeadlineExceeded.Error()) {
			t.Fatalf("%s quality=%s: error body %q does not mention the deadline", tc.technique, tc.quality, raw)
		}
		if elapsed > 500*time.Millisecond {
			t.Fatalf("%s quality=%s: deadline response took %v, want <500ms", tc.technique, tc.quality, elapsed)
		}
	}
}

func TestOversizedRequests(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024, MaxRows: 64})

	// Body larger than MaxBodyBytes: 413 from the byte limit.
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 'x'
	}
	status, _, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, nil), big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d: %s", status, raw)
	}

	// Small body declaring absurd dimensions: 413 from the declared-size
	// limit, before any dimension-proportional allocation.
	huge := []byte("%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 0\n")
	status, _, raw = doReorder(t, ts.Client(), reorderURL(ts.URL, nil), huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge declared size: status %d: %s", status, raw)
	}
}

// blockingOrderer parks in OrderCtx until released or cancelled, reporting
// each entry on started. It lets tests hold a worker and the queue in a
// known state.
type blockingOrderer struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingOrderer) Name() string { return "BLOCK" }

func (b *blockingOrderer) OrderCtx(ctx context.Context, m *sparse.CSR) (sparse.Permutation, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return sparse.Identity(m.NumRows), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func blockingResolver(b *blockingOrderer) func(string) (reorder.OrdererCtx, error) {
	return func(name string) (reorder.OrdererCtx, error) {
		if name == "BLOCK" {
			return b, nil
		}
		return reorder.ByNameCtx(name)
	}
}

// TestQueueSaturationSheds: with one worker and a one-slot queue, a third
// concurrent job is shed with 429 while the first two eventually succeed.
func TestQueueSaturationSheds(t *testing.T) {
	checkGoroutines(t)
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Resolver: blockingResolver(blk),
	})

	req := func(salt float32) (int, string) {
		status, _, raw := doReorder(t, ts.Client(),
			reorderURL(ts.URL, map[string]string{"technique": "BLOCK", "quality": "off"}),
			mmBody(t, testMatrix(salt)))
		return status, raw
	}

	var wg sync.WaitGroup
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw := req(float32(i+1) / 16)
			results[i] = status
			if status != http.StatusOK {
				t.Errorf("held request %d: status %d: %s", i, status, raw)
			}
		}()
	}

	// Wait until the first job occupies the worker, then until the second
	// sits in the queue.
	<-blk.started
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(text), "reorderd_queue_depth 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second job never queued:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, raw := req(0.75)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d: %s", status, raw)
	}

	close(blk.release)
	wg.Wait()
}

// TestGracefulShutdownDrains: Close while a job is running must reject new
// work with 503, let the in-flight job finish and its client get a full
// response, and return only after the pool is idle.
func TestGracefulShutdownDrains(t *testing.T) {
	checkGoroutines(t)
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(Config{Workers: 1, Resolver: blockingResolver(blk)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := make(chan int, 1)
	go func() {
		status, _, _ := doReorder(t, ts.Client(),
			reorderURL(ts.URL, map[string]string{"technique": "BLOCK", "quality": "off"}),
			mmBody(t, testMatrix(0)))
		inFlight <- status
	}()
	<-blk.started

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// Close must be draining, not done, while the job is held.
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}

	// New work is rejected immediately during the drain.
	status, _, raw := doReorder(t, ts.Client(),
		reorderURL(ts.URL, map[string]string{"technique": "BLOCK", "quality": "off"}),
		mmBody(t, testMatrix(0.5)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d: %s", status, raw)
	}

	close(blk.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the job was released")
	}
	if got := <-inFlight; got != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d", got)
	}
}

// TestDedupSingleflight: two concurrent identical cold requests run one
// job; the second piggybacks and both get the same permutation.
func TestDedupSingleflight(t *testing.T) {
	checkGoroutines(t)
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 2, Resolver: blockingResolver(blk)})
	body := mmBody(t, testMatrix(0))
	u := reorderURL(ts.URL, map[string]string{"technique": "BLOCK", "quality": "off"})

	var wg sync.WaitGroup
	perms := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, out, raw := doReorder(t, ts.Client(), u, body)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, raw)
				return
			}
			perms[i] = fmt.Sprint(out.Permutation)
		}()
	}

	<-blk.started // one job is running
	// Wait for the second request to register as a dedup waiter, then
	// release; exactly one BLOCK job must have started.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(text), "reorderd_dedup_waits_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second request never deduped:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(blk.release)
	wg.Wait()

	select {
	case <-blk.started:
		t.Fatal("dedup failed: a second job entered OrderCtx")
	default:
	}
	if perms[0] != perms[1] {
		t.Fatalf("deduped requests got different permutations: %s vs %s", perms[0], perms[1])
	}
	if hits, misses := s.Metrics(); misses != 2 || hits != 0 {
		t.Fatalf("cache counters hits=%d misses=%d, want 0/2", hits, misses)
	}
}

func TestErrorStatuses(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name   string
		params map[string]string
		body   []byte
		want   int
	}{
		{"unknown technique", map[string]string{"technique": "NOPE"}, mmBody(t, testMatrix(0)), http.StatusBadRequest},
		{"unknown corpus matrix", map[string]string{"matrix": "no-such-matrix"}, nil, http.StatusNotFound},
		{"unknown preset", map[string]string{"matrix": "er-deg16", "preset": "typo"}, nil, http.StatusBadRequest},
		{"no body no matrix", nil, nil, http.StatusBadRequest},
		{"garbage body", nil, []byte("this is not matrixmarket"), http.StatusBadRequest},
		{"non-square", nil, []byte("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"), http.StatusBadRequest},
		{"bad timeout", map[string]string{"timeout_ms": "potato"}, mmBody(t, testMatrix(0)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, tc.params), tc.body)
			if status != tc.want {
				t.Fatalf("status %d, want %d: %s", status, tc.want, raw)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	checkGoroutines(t)
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	s.Close()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d", resp.StatusCode)
	}
}
