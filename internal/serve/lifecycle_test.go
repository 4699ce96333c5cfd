package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sparse"
)

// newBlockingServer starts a server whose BLOCK technique parks until
// release is called. The release is also registered as a cleanup that runs
// before the server's own, so a failing test never leaves a job parked in
// Close's drain.
func newBlockingServer(t *testing.T, cfg Config) (*httptest.Server, *blockingOrderer, func()) {
	t.Helper()
	blk := &blockingOrderer{started: make(chan struct{}, 8), release: make(chan struct{})}
	cfg.Resolver = blockingResolver(blk)
	_, ts := newTestServer(t, cfg)
	var once sync.Once
	release := func() { once.Do(func() { close(blk.release) }) }
	t.Cleanup(release)
	return ts, blk, release
}

// orderCalls drains blk.started: the number of computations that entered
// OrderCtx and were not yet counted.
func orderCalls(blk *blockingOrderer) int {
	for n := 0; ; n++ {
		select {
		case <-blk.started:
		default:
			return n
		}
	}
}

// waitMetric polls /metrics until series reads want.
func waitMetric(t *testing.T, ts *httptest.Server, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, ts.Client(), ts.URL, series) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v", series, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type reorderReply struct {
	status int // 0 when the request itself failed; raw holds the error
	out    reorderResponse
	raw    string
}

// reorderAsync sends a /reorder on its own goroutine; the reply arrives on
// the returned channel.
func reorderAsync(ts *httptest.Server, params map[string]string, body []byte) <-chan reorderReply {
	got := make(chan reorderReply, 1)
	go func() {
		var r reorderReply
		resp, err := ts.Client().Post(reorderURL(ts.URL, params), "text/plain", bytes.NewReader(body))
		if err == nil {
			var raw []byte
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			r.status, r.raw = resp.StatusCode, string(raw)
			if err == nil && r.status == http.StatusOK {
				err = json.Unmarshal(raw, &r.out)
			}
		}
		if err != nil {
			r.status, r.raw = 0, err.Error()
		}
		got <- r
	}()
	return got
}

var (
	blockParams = map[string]string{"technique": "BLOCK", "quality": "off"}
	blockJobs   = "/jobs?technique=BLOCK&quality=0"
)

// TestReorderJoinsRunningJob: a /reorder for the key of a running /jobs
// job waits on that job instead of starting a second computation, and
// gets the job's permutation.
func TestReorderJoinsRunningJob(t *testing.T) {
	checkGoroutines(t)
	ts, blk, release := newBlockingServer(t, Config{Workers: 2})
	m := testMatrix(0)

	status, job, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-blk.started
	got := reorderAsync(ts, blockParams, mmBody(t, m))
	waitMetric(t, ts, "reorderd_dedup_waits_total", 1)
	release()

	r := <-got
	if r.status != http.StatusOK || r.out.Cached {
		t.Fatalf("joined /reorder: status %d cached %v: %s", r.status, r.out.Cached, r.raw)
	}
	done := awaitJob(t, ts.Client(), ts.URL, job.JobID)
	if done.Status != jobDone || !slices.Equal(r.out.Permutation, done.Result.Permutation) {
		t.Fatalf("job %+v, /reorder permutation %v", done, r.out.Permutation)
	}
	if n := orderCalls(blk); n != 0 {
		t.Fatalf("%d more computations entered OrderCtx, want 0", n)
	}
}

// TestJobJoinsRunningReorder: a POST /jobs for the key of a running
// /reorder is a store hit on that job, status running, and both clients
// get the one computation's permutation.
func TestJobJoinsRunningReorder(t *testing.T) {
	checkGoroutines(t)
	ts, blk, release := newBlockingServer(t, Config{Workers: 2})
	m := testMatrix(0)

	got := reorderAsync(ts, blockParams, mmBody(t, m))
	<-blk.started
	status, job, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusOK || !job.StoreHit || job.Status != jobRunning {
		t.Fatalf("submit during /reorder: %d %s, want 200 store_hit running", status, raw)
	}
	release()

	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("/reorder: status %d: %s", r.status, r.raw)
	}
	done := awaitJob(t, ts.Client(), ts.URL, job.JobID)
	if done.Status != jobDone || !slices.Equal(r.out.Permutation, done.Result.Permutation) {
		t.Fatalf("job %+v, /reorder permutation %v", done, r.out.Permutation)
	}
	if n := orderCalls(blk); n != 0 {
		t.Fatalf("%d more computations entered OrderCtx, want 0", n)
	}
}

// TestHeldJobOutlivesWaiters: once a /jobs client holds a job, its last
// /reorder waiter timing out does not cancel it; the job completes.
func TestHeldJobOutlivesWaiters(t *testing.T) {
	checkGoroutines(t)
	ts, blk, release := newBlockingServer(t, Config{Workers: 2})
	m := testMatrix(0)

	got := reorderAsync(ts, map[string]string{"technique": "BLOCK", "quality": "off", "timeout_ms": "500"}, mmBody(t, m))
	<-blk.started
	status, job, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusOK || !job.StoreHit {
		t.Fatalf("submit during /reorder: %d %s, want a store hit", status, raw)
	}
	if r := <-got; r.status != http.StatusGatewayTimeout {
		t.Fatalf("/reorder: status %d, want 504: %s", r.status, r.raw)
	}
	if _, out, raw := getJob(t, ts.Client(), ts.URL, job.JobID, ""); out.Status != jobRunning {
		t.Fatalf("held job after its waiter left: %s", raw)
	}
	release()
	if done := awaitJob(t, ts.Client(), ts.URL, job.JobID); done.Status != jobDone {
		t.Fatalf("held job: %+v", done)
	}
	if n := orderCalls(blk); n != 0 {
		t.Fatalf("%d more computations entered OrderCtx, want 0", n)
	}
}

// TestTimedOutReorderLeavesNoEntry: a /reorder that times out as its job's
// only waiter cancels the job and drops it, so a retry computes afresh and
// the store then holds the retry's result, not the failure.
func TestTimedOutReorderLeavesNoEntry(t *testing.T) {
	checkGoroutines(t)
	ts, blk, release := newBlockingServer(t, Config{Workers: 2})
	body := mmBody(t, testMatrix(0))

	status, _, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, map[string]string{"technique": "BLOCK", "quality": "off", "timeout_ms": "50"}), body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d: %s", status, raw)
	}
	<-blk.started
	release()
	status, out, raw := doReorder(t, ts.Client(), reorderURL(ts.URL, blockParams), body)
	if status != http.StatusOK || out.Cached {
		t.Fatalf("retry: status %d cached %v: %s", status, out.Cached, raw)
	}
	if n := orderCalls(blk); n != 1 {
		t.Fatalf("retry: %d computations entered OrderCtx, want 1", n)
	}
	status, job, raw := postJob(t, ts.Client(), ts.URL+blockJobs, body, "text/plain")
	if status != http.StatusOK || !job.StoreHit || job.Status != jobDone {
		t.Fatalf("/jobs after the retry: %d %s, want a store hit on a done job", status, raw)
	}
}

// TestHeldFailedJob: a failed job a /jobs client holds stays in the store
// until the next request for its key, and a /jobs resubmission replaces it
// with a fresh job, as a /reorder would: the failure is retried, not
// replayed.
func TestHeldFailedJob(t *testing.T) {
	checkGoroutines(t)
	ts, blk, release := newBlockingServer(t, Config{Workers: 2, MaxJobTime: 50 * time.Millisecond})
	m := testMatrix(0)

	status, job, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	<-blk.started
	if failed := awaitJob(t, ts.Client(), ts.URL, job.JobID); failed.Status != jobFailed || !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("job past MaxJobTime: %+v", failed)
	}
	// Released before the retry, so the retry cannot outlive MaxJobTime
	// on a slow host.
	release()
	status, again, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusAccepted || again.StoreHit || again.Status != jobQueued || again.JobID != job.JobID {
		t.Fatalf("resubmit: %d %s, want a fresh queued job replacing the failure", status, raw)
	}
	if out := awaitJob(t, ts.Client(), ts.URL, again.JobID); out.Status != jobDone {
		t.Fatalf("retried job: %+v", out)
	}
	if n := orderCalls(blk); n != 1 {
		t.Fatalf("retry: %d more computations entered OrderCtx, want 1 (2 in all)", n)
	}
	for series, want := range map[string]float64{
		"reorderd_jobs_submitted_total": 2,
		"reorderd_cache_misses_total":   2,
		"reorderd_job_store_hits_total": 0,
	} {
		if got := metricValue(t, ts.Client(), ts.URL, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	status, third, raw := postJob(t, ts.Client(), ts.URL+blockJobs, binBody(t, m), sparse.BinaryCSRContentType)
	if status != http.StatusOK || !third.StoreHit || third.Status != jobDone {
		t.Fatalf("/jobs after the retry: %d %s, want a store hit on a done job", status, raw)
	}
}
