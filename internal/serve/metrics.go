package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets is the number of power-of-two millisecond histogram
// buckets: bucket i counts observations < 2^i ms, the last bucket is the
// overflow (+Inf).
const latencyBuckets = 18

// histogram is a log2-millisecond latency histogram with its count and sum.
type histogram struct {
	count   int64
	totalNs int64
	// buckets[i] counts observations with elapsed < 2^i milliseconds; the
	// final bucket counts everything slower.
	buckets [latencyBuckets]int64
}

func (h *histogram) observe(elapsed time.Duration) {
	h.count++
	h.totalNs += elapsed.Nanoseconds()
	ms := elapsed.Milliseconds()
	b := 0
	for b < latencyBuckets-1 && ms >= 1<<b {
		b++
	}
	h.buckets[b]++
}

// render writes the cumulative <series>_ms_bucket lines; labels, when not
// empty, are written before le and end in a comma.
func (h *histogram) render(w io.Writer, series, labels string) {
	cum := int64(0)
	for b := 0; b < latencyBuckets; b++ {
		cum += h.buckets[b]
		le := fmt.Sprintf("%d", int64(1)<<b)
		if b == latencyBuckets-1 {
			le = "+Inf"
		}
		fmt.Fprintf(w, "%s_ms_bucket{%sle=%q} %d\n", series, labels, le, cum)
	}
}

// techStats aggregates per-technique job outcomes.
type techStats struct {
	histogram
	errors int64
}

// metrics is the service's instrumentation surface, rendered by /metrics
// in a Prometheus-style text format with deterministic line order.
type metrics struct {
	mu         sync.Mutex
	requests   map[string]int64 // by path
	statuses   map[int]int64    // by HTTP status
	cacheHits  int64
	cacheMiss  int64
	dedupWaits int64 // requests that piggybacked on an in-flight computation
	shedQueue  int64 // 429s from queue saturation
	shedSize   int64 // 413s from body or dimension limits
	inFlight   int64 // HTTP requests currently being handled
	perTech    map[string]*techStats

	jobsSubmitted int64 // POST /jobs accepted submissions (including store hits)
	storeHits     int64 // job submissions answered from the job store
	forwards      int64 // requests forwarded to their ring owner
	forwardErrors int64 // forwards that failed at the transport level
	longPolls     int64 // GET /jobs/{id}?wait= requests that blocked

	advisorRecs map[string]int64 // technique=auto recommendations by chosen technique
	features    histogram        // feature extractions actually performed (cache misses)
}

func newMetrics() *metrics {
	return &metrics{
		requests:    make(map[string]int64),
		statuses:    make(map[int]int64),
		perTech:     make(map[string]*techStats),
		advisorRecs: make(map[string]int64),
	}
}

func (m *metrics) requestStarted(path string) {
	m.mu.Lock()
	m.requests[path]++
	m.inFlight++
	m.mu.Unlock()
}

func (m *metrics) requestFinished(status int) {
	m.mu.Lock()
	m.statuses[status]++
	m.inFlight--
	m.mu.Unlock()
}

func (m *metrics) cacheHit()    { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *metrics) cacheMissed() { m.mu.Lock(); m.cacheMiss++; m.mu.Unlock() }
func (m *metrics) dedupWait()   { m.mu.Lock(); m.dedupWaits++; m.mu.Unlock() }
func (m *metrics) queueShed()   { m.mu.Lock(); m.shedQueue++; m.mu.Unlock() }
func (m *metrics) sizeShed()    { m.mu.Lock(); m.shedSize++; m.mu.Unlock() }

func (m *metrics) jobSubmitted()  { m.mu.Lock(); m.jobsSubmitted++; m.mu.Unlock() }
func (m *metrics) storeHit()      { m.mu.Lock(); m.storeHits++; m.mu.Unlock() }
func (m *metrics) forwarded()     { m.mu.Lock(); m.forwards++; m.mu.Unlock() }
func (m *metrics) forwardFailed() { m.mu.Lock(); m.forwardErrors++; m.mu.Unlock() }
func (m *metrics) longPollWait()  { m.mu.Lock(); m.longPolls++; m.mu.Unlock() }

// observeJob records one completed reordering job for the technique.
func (m *metrics) observeJob(technique string, elapsed time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.perTech[technique]
	if ts == nil {
		ts = &techStats{}
		m.perTech[technique] = ts
	}
	ts.observe(elapsed)
	if failed {
		ts.errors++
	}
}

// advisorRecommended records one technique=auto request resolving to the
// chosen technique.
func (m *metrics) advisorRecommended(technique string) {
	m.mu.Lock()
	m.advisorRecs[technique]++
	m.mu.Unlock()
}

// observeFeatures records one advisor feature extraction (cache misses
// only; digest-cache hits skip the extraction entirely).
func (m *metrics) observeFeatures(elapsed time.Duration) {
	m.mu.Lock()
	m.features.observe(elapsed)
	m.mu.Unlock()
}

// snapshotCounters returns (hits, misses) for tests and the amortization
// report.
func (m *metrics) snapshotCounters() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits, m.cacheMiss
}

// render writes the exposition text. queueDepth and storeLen are sampled
// by the caller at render time (they live in the pool and the job store,
// not here).
func (m *metrics) render(w io.Writer, queueDepth, storeLen int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	paths := make([]string, 0, len(m.requests))
	for p := range m.requests {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "reorderd_requests_total{path=%q} %d\n", p, m.requests[p])
	}

	codes := make([]int, 0, len(m.statuses))
	for c := range m.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "reorderd_responses_total{status=\"%d\"} %d\n", c, m.statuses[c])
	}

	fmt.Fprintf(w, "reorderd_in_flight %d\n", m.inFlight)
	fmt.Fprintf(w, "reorderd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "reorderd_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintf(w, "reorderd_cache_misses_total %d\n", m.cacheMiss)
	ratio := 0.0
	if lookups := m.cacheHits + m.cacheMiss; lookups > 0 {
		ratio = float64(m.cacheHits) / float64(lookups)
	}
	fmt.Fprintf(w, "reorderd_cache_hit_ratio %.6f\n", ratio)
	fmt.Fprintf(w, "reorderd_dedup_waits_total %d\n", m.dedupWaits)
	fmt.Fprintf(w, "reorderd_shed_queue_total %d\n", m.shedQueue)
	fmt.Fprintf(w, "reorderd_shed_size_total %d\n", m.shedSize)
	fmt.Fprintf(w, "reorderd_jobs_submitted_total %d\n", m.jobsSubmitted)
	fmt.Fprintf(w, "reorderd_job_store_hits_total %d\n", m.storeHits)
	fmt.Fprintf(w, "reorderd_job_store_entries %d\n", storeLen)
	fmt.Fprintf(w, "reorderd_forwards_total %d\n", m.forwards)
	fmt.Fprintf(w, "reorderd_forward_errors_total %d\n", m.forwardErrors)
	fmt.Fprintf(w, "reorderd_longpoll_waits_total %d\n", m.longPolls)

	recs := make([]string, 0, len(m.advisorRecs))
	for name := range m.advisorRecs {
		recs = append(recs, name)
	}
	sort.Strings(recs)
	for _, name := range recs {
		fmt.Fprintf(w, "reorderd_advisor_recommendations_total{technique=%q} %d\n", name, m.advisorRecs[name])
	}
	fmt.Fprintf(w, "reorderd_advisor_features_total %d\n", m.features.count)
	fmt.Fprintf(w, "reorderd_advisor_features_seconds_sum %.6f\n", float64(m.features.totalNs)/1e9)
	if m.features.count > 0 {
		m.features.render(w, "reorderd_advisor_features", "")
	}

	techs := make([]string, 0, len(m.perTech))
	for name := range m.perTech {
		techs = append(techs, name)
	}
	sort.Strings(techs)
	for _, name := range techs {
		ts := m.perTech[name]
		fmt.Fprintf(w, "reorderd_jobs_total{technique=%q} %d\n", name, ts.count)
		fmt.Fprintf(w, "reorderd_job_errors_total{technique=%q} %d\n", name, ts.errors)
		fmt.Fprintf(w, "reorderd_job_seconds_sum{technique=%q} %.6f\n", name, float64(ts.totalNs)/1e9)
		ts.render(w, "reorderd_job", fmt.Sprintf("technique=%q,", name))
	}
}
