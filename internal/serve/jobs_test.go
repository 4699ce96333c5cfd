package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sparse"
)

// binBody encodes a matrix in the binary CSR wire format.
func binBody(t *testing.T, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteBinaryCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postJob submits a matrix body to POST /jobs and parses the response.
func postJob(t *testing.T, client *http.Client, u string, body []byte, contentType string) (int, jobResponse, string) {
	t.Helper()
	resp, err := client.Post(u, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out jobResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad job JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

// getJob polls GET /jobs/{id} (with optional query) and parses the response.
func getJob(t *testing.T, client *http.Client, base, id, query string) (int, jobResponse, string) {
	t.Helper()
	u := base + "/jobs/" + id
	if query != "" {
		u += "?" + query
	}
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out jobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad job JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

// awaitJob long-polls until the job leaves the queued/running states or the
// deadline passes.
func awaitJob(t *testing.T, client *http.Client, base, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		status, out, raw := getJob(t, client, base, id, "wait=500")
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, status, raw)
		}
		if out.Status == jobDone || out.Status == jobFailed {
			return out
		}
	}
	t.Fatalf("job %s did not complete in time", id)
	return jobResponse{}
}

// metricValue scrapes one series from /metrics.
func metricValue(t *testing.T, client *http.Client, base, series string) float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v); err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestJobLifecycle: a binary-CSR submission is accepted with 202 and a
// pollable Location, completes asynchronously, and returns the same
// permutation the synchronous /reorder path computes for the same bytes.
func TestJobLifecycle(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	m := testMatrix(0)

	status, job, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=RABBIT%2B%2B", binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	if job.Status != jobQueued && job.Status != jobRunning {
		t.Fatalf("fresh job status = %q", job.Status)
	}
	if len(job.JobID) != 64+1+16 {
		t.Fatalf("job ID %q has unexpected shape", job.JobID)
	}
	if want := strings.TrimPrefix(m.Digest(), "sha256:"); !strings.HasPrefix(job.JobID, want+".") {
		t.Fatalf("job ID %q does not start with the matrix digest %s", job.JobID, want)
	}

	done := awaitJob(t, ts.Client(), ts.URL, job.JobID)
	if done.Status != jobDone || done.Result == nil {
		t.Fatalf("completed job: %+v", done)
	}
	if done.CompletedMS <= 0 {
		t.Fatalf("completed job reports no wall time: %+v", done)
	}

	syncStatus, syncOut, syncRaw := doReorder(t, ts.Client(), ts.URL+"/reorder?technique=RABBIT%2B%2B", mmBody(t, m))
	if syncStatus != http.StatusOK {
		t.Fatalf("sync reorder: %d %s", syncStatus, syncRaw)
	}
	if len(syncOut.Permutation) != len(done.Result.Permutation) {
		t.Fatalf("async and sync permutation lengths differ: %d vs %d", len(done.Result.Permutation), len(syncOut.Permutation))
	}
	for i := range syncOut.Permutation {
		if syncOut.Permutation[i] != done.Result.Permutation[i] {
			t.Fatalf("async and sync permutations diverge at %d", i)
		}
	}
}

// TestJobStoreHitOnResubmit: resubmitting the same matrix and technique
// returns the stored job with 200 and the store-hit marker — the
// content-addressed persistence property.
func TestJobStoreHitOnResubmit(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	body := binBody(t, testMatrix(0))

	status, first, raw := postJob(t, ts.Client(), ts.URL+"/jobs", body, sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", status, raw)
	}
	awaitJob(t, ts.Client(), ts.URL, first.JobID)

	status, second, raw := postJob(t, ts.Client(), ts.URL+"/jobs", body, sparse.BinaryCSRContentType)
	if status != http.StatusOK {
		t.Fatalf("resubmit: %d %s", status, raw)
	}
	if !second.StoreHit || second.JobID != first.JobID || second.Status != jobDone || second.Result == nil {
		t.Fatalf("resubmit did not hit the store: %+v", second)
	}
	if hits := metricValue(t, ts.Client(), ts.URL, "reorderd_job_store_hits_total"); hits != 1 {
		t.Fatalf("reorderd_job_store_hits_total = %v, want 1", hits)
	}

	// The MatrixMarket encoding of the same matrix has the same digest, so
	// it is a store hit too — format never splits the content address.
	status, third, raw := postJob(t, ts.Client(), ts.URL+"/jobs", mmBody(t, testMatrix(0)), "text/plain")
	if status != http.StatusOK || !third.StoreHit {
		t.Fatalf("MM resubmit missed the store: %d %s", status, raw)
	}
}

// TestJobLongPollWakeup: a GET with ?wait= parked on an in-flight job wakes
// promptly when the job completes, rather than sleeping out its budget.
func TestJobLongPollWakeup(t *testing.T) {
	checkGoroutines(t)
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 1, Resolver: blockingResolver(blk)})

	status, job, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=BLOCK&quality=0", binBody(t, testMatrix(0)), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-blk.started

	type pollResult struct {
		out     jobResponse
		elapsed time.Duration
	}
	got := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		_, out, _ := getJob(t, ts.Client(), ts.URL, job.JobID, "wait=20000")
		got <- pollResult{out, time.Since(start)}
	}()

	// Give the poller time to park, then complete the job.
	time.Sleep(50 * time.Millisecond)
	close(blk.release)

	res := <-got
	if res.out.Status != jobDone {
		t.Fatalf("long-poll returned status %q", res.out.Status)
	}
	if res.elapsed > 10*time.Second {
		t.Fatalf("long-poll slept %v; wakeup on completion is broken", res.elapsed)
	}
	if waits := metricValue(t, ts.Client(), ts.URL, "reorderd_longpoll_waits_total"); waits < 1 {
		t.Fatalf("reorderd_longpoll_waits_total = %v, want >= 1", waits)
	}
}

// TestJobSaturationRollback: a submission shed with 429 leaves no orphaned
// store entry, so the same matrix resubmits cleanly once capacity frees up.
func TestJobSaturationRollback(t *testing.T) {
	checkGoroutines(t)
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Resolver: blockingResolver(blk)})

	if status, _, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=BLOCK&quality=0", binBody(t, testMatrix(1)), sparse.BinaryCSRContentType); status != http.StatusAccepted {
		t.Fatalf("first: %d %s", status, raw)
	}
	<-blk.started
	if status, _, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=BLOCK&quality=0", binBody(t, testMatrix(2)), sparse.BinaryCSRContentType); status != http.StatusAccepted {
		t.Fatalf("second: %d %s", status, raw)
	}
	shedBody := binBody(t, testMatrix(3))
	if status, _, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=BLOCK&quality=0", shedBody, sparse.BinaryCSRContentType); status != http.StatusTooManyRequests {
		t.Fatalf("third: %d %s, want 429", status, raw)
	}

	close(blk.release)
	// The worker takes the second job once the first returns; only then
	// has the one-slot queue room for the resubmission.
	<-blk.started
	status, job, raw := postJob(t, ts.Client(), ts.URL+"/jobs?technique=BLOCK&quality=0", shedBody, sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit after shed: %d %s (a 200 here means the shed job leaked into the store)", status, raw)
	}
	if out := awaitJob(t, ts.Client(), ts.URL, job.JobID); out.Status != jobDone {
		t.Fatalf("resubmitted job: %+v", out)
	}
}

// TestJobErrors covers the job API's failure statuses.
func TestJobErrors(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()

	if resp, err := client.Get(ts.URL + "/jobs"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /jobs: %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := client.Post(ts.URL+"/jobs/abc", "text/plain", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /jobs/{id}: %d, want 405", resp.StatusCode)
		}
	}
	if status, _, _ := getJob(t, client, ts.URL, "not-a-job-id", ""); status != http.StatusBadRequest {
		t.Fatalf("malformed ID: %d, want 400", status)
	}
	ghost := strings.Repeat("ab", 32) + "." + strings.Repeat("cd", 8)
	if status, _, _ := getJob(t, client, ts.URL, ghost, ""); status != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", status)
	}

	status, job, raw := postJob(t, client, ts.URL+"/jobs", binBody(t, testMatrix(0)), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	if st, _, _ := getJob(t, client, ts.URL, job.JobID, "wait=banana"); st != http.StatusBadRequest {
		t.Fatalf("bad wait: %d, want 400", st)
	}

	rect := sparse.NewCOO(2, 3, 1)
	rect.Add(0, 2, 1)
	if st, _, raw := postJob(t, client, ts.URL+"/jobs", binBody(t, rect.ToCSR()), sparse.BinaryCSRContentType); st != http.StatusBadRequest {
		t.Fatalf("non-square: %d %s, want 400", st, raw)
	}
	if st, _, raw := postJob(t, client, ts.URL+"/jobs?technique=NOPE", binBody(t, testMatrix(0)), sparse.BinaryCSRContentType); st != http.StatusBadRequest {
		t.Fatalf("unknown technique: %d %s, want 400", st, raw)
	}
	if st, _, raw := postJob(t, client, ts.URL+"/jobs", []byte("CSRBgarbage"), sparse.BinaryCSRContentType); st != http.StatusBadRequest {
		t.Fatalf("corrupt binary body: %d %s, want 400", st, raw)
	}
}

// newPeerRing starts n in-process reorderd peers sharing one peer list.
// Listeners are bound first so every peer's URL is known before any server
// is constructed — the same two-phase bring-up a static -peers deployment
// uses.
func newPeerRing(t *testing.T, n int, cfg Config) []*httptest.Server {
	t.Helper()
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		urls[i] = "http://" + tss[i].Listener.Addr().String()
	}
	forward := &http.Client{}
	servers := make([]*Server, n)
	for i := range tss {
		c := cfg
		c.Self = urls[i]
		c.Peers = append([]string{}, urls...)
		c.ForwardClient = forward
		servers[i] = New(c)
		tss[i].Config.Handler = servers[i].Handler()
		tss[i].Start()
	}
	t.Cleanup(func() {
		forward.CloseIdleConnections()
		for i := range tss {
			tss[i].Close()
			servers[i].Close()
		}
	})
	return tss
}

// TestThreePeerForwardingDeterminism: in a 3-peer ring, a job submitted to
// a non-owner peer is transparently forwarded, completes on the owner, and
// yields a permutation identical to the one a single-node server computes
// for the same bytes.
func TestThreePeerForwardingDeterminism(t *testing.T) {
	checkGoroutines(t)
	tss := newPeerRing(t, 3, Config{Workers: 2})
	urls := make([]string, len(tss))
	for i, ts := range tss {
		urls[i] = ts.URL
	}
	r := newRing(urls[0], urls)

	// Find a matrix owned by a peer other than tss[0], so a submission to
	// tss[0] must hop.
	var m *sparse.CSR
	var owner string
	for salt := float32(0); salt < 64; salt++ {
		cand := testMatrix(salt)
		o := r.owner(strings.TrimPrefix(cand.Digest(), "sha256:"))
		if o != urls[0] {
			m, owner = cand, o
			break
		}
	}
	if m == nil {
		t.Fatal("no test matrix hashed off-peer; ring placement is suspicious")
	}

	client := tss[0].Client()
	resp, err := client.Post(tss[0].URL+"/jobs?technique=RABBIT%2B%2B", sparse.BinaryCSRContentType, bytes.NewReader(binBody(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Reorderd-Owner"); got != owner {
		t.Fatalf("X-Reorderd-Owner = %q, want %q", got, owner)
	}
	var job jobResponse
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("bad forwarded JSON %q: %v", raw, err)
	}
	if job.Owner != owner {
		t.Fatalf("job owner = %q, want %q", job.Owner, owner)
	}

	// Poll through a third peer (neither owner nor the original entry
	// point) — GETs route by the digest embedded in the job ID.
	entry := tss[0].URL
	for _, u := range urls {
		if u != owner && u != tss[0].URL {
			entry = u
		}
	}
	done := awaitJob(t, client, entry, job.JobID)
	if done.Status != jobDone || done.Result == nil {
		t.Fatalf("forwarded job did not complete: %+v", done)
	}

	// Entry peer recorded the hop.
	if fwd := metricValue(t, client, tss[0].URL, "reorderd_forwards_total"); fwd < 1 {
		t.Fatalf("reorderd_forwards_total on entry peer = %v, want >= 1", fwd)
	}

	// A /reorder of the same matrix through the entry peer is forwarded to
	// the owner too, and is a hit on the job the submission left there.
	resp, err = client.Post(tss[0].URL+"/reorder?technique=RABBIT%2B%2B", sparse.BinaryCSRContentType, bytes.NewReader(binBody(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded /reorder: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Reorderd-Owner"); got != owner {
		t.Fatalf("forwarded /reorder: X-Reorderd-Owner = %q, want %q", got, owner)
	}
	var hit reorderResponse
	if err := json.Unmarshal(raw, &hit); err != nil {
		t.Fatalf("bad forwarded /reorder JSON %q: %v", raw, err)
	}
	if !hit.Cached || !slices.Equal(hit.Permutation, done.Result.Permutation) {
		t.Fatalf("forwarded /reorder: cached %v, permutation %v, want the job's %v", hit.Cached, hit.Permutation, done.Result.Permutation)
	}

	// A direct submission to the owner is a store hit on the same job.
	status, local, rawHit := postJob(t, client, owner+"/jobs?technique=RABBIT%2B%2B", binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusOK || !local.StoreHit {
		t.Fatalf("owner-local resubmit: %d %s", status, rawHit)
	}

	// And the permutation matches a single-node computation byte for byte.
	_, solo := newTestServer(t, Config{Workers: 2})
	soloStatus, soloOut, soloRaw := doReorder(t, solo.Client(), solo.URL+"/reorder?technique=RABBIT%2B%2B", mmBody(t, m))
	if soloStatus != http.StatusOK {
		t.Fatalf("single-node reorder: %d %s", soloStatus, soloRaw)
	}
	if len(soloOut.Permutation) != len(done.Result.Permutation) {
		t.Fatalf("permutation lengths differ: forwarded %d, single-node %d", len(done.Result.Permutation), len(soloOut.Permutation))
	}
	for i := range soloOut.Permutation {
		if soloOut.Permutation[i] != done.Result.Permutation[i] {
			t.Fatalf("forwarded and single-node permutations diverge at %d", i)
		}
	}
}

// TestRingEndpoint: /ring exposes the routing topology on both single-node
// and multi-peer deployments.
func TestRingEndpoint(t *testing.T) {
	checkGoroutines(t)
	_, solo := newTestServer(t, Config{Workers: 1})
	resp, err := solo.Client().Get(solo.URL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Self         string   `json:"self"`
		Peers        []string `json:"peers"`
		VnodesPer    int      `json:"vnodes_per_peer"`
		StoreEntries int      `json:"store_entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(topo.Peers) != 1 {
		t.Fatalf("single-node /ring peers = %v", topo.Peers)
	}

	tss := newPeerRing(t, 3, Config{Workers: 1})
	resp, err = tss[1].Client().Get(tss[1].URL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(topo.Peers) != 3 || topo.Self != tss[1].URL || topo.VnodesPer != ringReplicas {
		t.Fatalf("3-peer /ring = %+v", topo)
	}
}

// TestReorderBinaryUpload: the synchronous /reorder path accepts the binary
// wire format via Content-Type and produces the same digest (and thus the
// same cache entry) as the MatrixMarket upload of the same matrix.
func TestReorderBinaryUpload(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	m := testMatrix(0)

	resp, err := ts.Client().Post(ts.URL+"/reorder?technique=RCM", sparse.BinaryCSRContentType, bytes.NewReader(binBody(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary /reorder: %d %s", resp.StatusCode, raw)
	}
	var binOut reorderResponse
	if err := json.Unmarshal(raw, &binOut); err != nil {
		t.Fatal(err)
	}

	mmStatus, mmOut, mmRaw := doReorder(t, ts.Client(), ts.URL+"/reorder?technique=RCM", mmBody(t, m))
	if mmStatus != http.StatusOK {
		t.Fatalf("MM /reorder: %d %s", mmStatus, mmRaw)
	}
	if binOut.Digest != mmOut.Digest {
		t.Fatalf("digest differs by upload format: %s vs %s", binOut.Digest, mmOut.Digest)
	}
	if !mmOut.Cached {
		t.Fatal("MM upload after binary upload should hit the digest-keyed cache")
	}
}
