// Package serve implements reorderd, the long-lived matrix-reordering
// service. The paper's Figure 9 shows reordering cost is amortized only
// when a permutation is computed once and reused across many SpMV/SpMM
// invocations; this service is that amortization made operational: a
// bounded worker pool computes permutations under per-request deadlines,
// a keyed LRU cache (matrix digest × technique) with singleflight dedup
// makes every repeat request a cache hit, and queue-depth / request-size
// load shedding keeps preprocessing latency under control (the concern
// Asudeh et al. and the BOBA line of work raise about reordering in
// production).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// Config tunes the service. The zero value is usable: every field
// defaults to a production-reasonable setting in withDefaults.
type Config struct {
	// Workers is the reordering worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; submissions
	// beyond it are shed with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the (digest × technique) result LRU (default 256).
	CacheEntries int
	// MatrixCacheEntries bounds the generated-corpus matrix LRU (default 8).
	MatrixCacheEntries int
	// MaxBodyBytes bounds uploaded MatrixMarket bodies; larger uploads are
	// shed with 413 (default 64 MiB).
	MaxBodyBytes int64
	// MaxRows bounds the declared row count of uploaded matrices, applied
	// before any dimension-proportional allocation (default 1<<22).
	MaxRows int32
	// MaxEntries likewise bounds the declared entry count (default 1<<26).
	MaxEntries int
	// MaxJobTime caps both the client-requested deadline and the compute
	// budget of a job once all its waiters are gone (default 2m).
	MaxJobTime time.Duration
	// Preset selects the scale of corpus-referenced matrices (default Small).
	Preset gen.Preset
	// Resolver maps technique names to cancellable orderers (default
	// reorder.ByNameCtx). Tests inject synthetic techniques through it.
	Resolver func(name string) (reorder.OrdererCtx, error)
	// OrderWorkers is the intra-job parallelism handed to techniques that
	// implement reorder.ParallelOrderer (default 1, the sequential path).
	// It is independent of Workers, which bounds concurrent jobs; results
	// are byte-identical at any OrderWorkers value, so the cache never
	// keys on it.
	OrderWorkers int
	// Self is this peer's advertised base URL (e.g. "http://10.0.0.1:8377"),
	// required for sharding: peers compare ring owners against it and stamp
	// it into job responses. Empty disables sharding (single-node mode).
	Self string
	// Peers is the static full peer list for consistent-hash job sharding,
	// Self included (it is appended when missing). Order is irrelevant —
	// every peer sorts the list before building its ring, so all peers
	// agree on ownership. Empty (or Self empty) means single-node.
	Peers []string
	// StoreEntries bounds completed jobs retained by the content-addressed
	// job store (default 1024). Queued/running jobs are never evicted.
	StoreEntries int
	// ForwardClient issues cross-peer forwards (default: a dedicated
	// http.Client; per-request deadlines come from the inbound request
	// context). Tests inject instrumented clients through it.
	ForwardClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MatrixCacheEntries <= 0 {
		c.MatrixCacheEntries = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1 << 22
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 26
	}
	if c.MaxJobTime <= 0 {
		c.MaxJobTime = 2 * time.Minute
	}
	if c.Resolver == nil {
		c.Resolver = reorder.ByNameCtx
	}
	if c.OrderWorkers < 1 {
		c.OrderWorkers = 1
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 1024
	}
	if c.ForwardClient == nil {
		c.ForwardClient = &http.Client{}
	}
	c.Self = strings.TrimSuffix(c.Self, "/")
	if c.Self == "" {
		// Sharding needs a self identity to compare ring owners against;
		// without one the peer list cannot be used.
		c.Peers = nil
	}
	if len(c.Peers) > 0 {
		peers := make([]string, 0, len(c.Peers)+1)
		selfListed := false
		for _, p := range c.Peers {
			p = strings.TrimSuffix(p, "/")
			if p == "" {
				continue
			}
			if p == c.Self {
				selfListed = true
			}
			peers = append(peers, p)
		}
		if !selfListed {
			peers = append(peers, c.Self)
		}
		c.Peers = peers
	}
	return c
}

// Server is the reorderd HTTP service. Create with New, mount Handler,
// and Close on shutdown to drain in-flight jobs.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pool     *workerPool
	cache    *lruCache // digest|technique → *reorderResult
	quality  *lruCache // digest → *qualityStats
	features *lruCache // digest → advisor.Features (technique=auto)
	matrices *matrixCache
	metrics  *metrics
	store    *jobStore
	ring     *ring // nil in single-node mode (every key is self-owned)

	flightMu sync.Mutex
	flights  map[string]*flight

	closed atomic.Bool
}

// flight is one in-progress (digest × technique) computation. Followers
// piggyback by incrementing waiters; when the last waiter abandons (its
// request context fired), the job context is cancelled so the worker stops
// burning CPU on a result nobody wants.
type flight struct {
	done    chan struct{}
	res     *reorderResult
	err     error
	waiters int
	cancel  context.CancelFunc
}

// reorderResult is the cached outcome of one job.
type reorderResult struct {
	Perm      sparse.Permutation
	Rows      int32
	Cols      int32
	NNZ       int
	Digest    string
	ComputeMS float64
	Quality   *qualityStats
}

// qualityStats is the community-quality summary returned with every
// permutation: the Section V metrics that predict whether the reordering
// will pay off.
type qualityStats struct {
	Insularity  float64 `json:"insularity"`
	Modularity  float64 `json:"modularity"`
	DegreeSkew  float64 `json:"degree_skew"`
	Communities int32   `json:"communities"`
}

// advisorInfo is the technique=auto block of the /reorder response: how
// the advisor arrived at the technique the response carries.
type advisorInfo struct {
	Model      string           `json:"model"`
	Confidence float64          `json:"confidence"`
	Ranked     []advisor.Scored `json:"ranked"`
}

// reorderResponse is the /reorder JSON body.
type reorderResponse struct {
	Technique   string             `json:"technique"`
	Matrix      string             `json:"matrix,omitempty"`
	Rows        int32              `json:"rows"`
	Cols        int32              `json:"cols"`
	NNZ         int                `json:"nnz"`
	Digest      string             `json:"digest"`
	Cached      bool               `json:"cached"`
	ElapsedMS   float64            `json:"elapsed_ms"`
	ComputeMS   float64            `json:"compute_ms"`
	Permutation sparse.Permutation `json:"permutation"`
	Quality     *qualityStats      `json:"quality,omitempty"`
	Advisor     *advisorInfo       `json:"advisor,omitempty"`
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		pool:     newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:    newLRUCache(cfg.CacheEntries),
		quality:  newLRUCache(cfg.CacheEntries),
		features: newLRUCache(cfg.CacheEntries),
		matrices: newMatrixCache(cfg.MatrixCacheEntries),
		metrics:  newMetrics(),
		store:    newJobStore(cfg.StoreEntries),
		flights:  make(map[string]*flight),
	}
	if len(cfg.Peers) > 1 {
		s.ring = newRing(cfg.Self, cfg.Peers)
	}
	s.mux.HandleFunc("/reorder", s.handleReorder)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobGet)
	s.mux.HandleFunc("/ring", s.handleRing)
	s.mux.HandleFunc("/techniques", s.handleTechniques)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requestStarted(r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() { s.metrics.requestFinished(rec.status) }()
		s.mux.ServeHTTP(rec, r)
	})
}

// Close stops admission and drains: queued and running jobs finish, their
// waiters get responses, then Close returns. Safe to call more than once.
func (s *Server) Close() {
	s.closed.Store(true)
	s.pool.close()
}

// Metrics exposes counters for tests and the smoke harness.
func (s *Server) Metrics() (cacheHits, cacheMisses int64) {
	return s.metrics.snapshotCounters()
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.render(w, s.pool.depth(), s.cache.len(), s.store.len())
}

func (s *Server) handleTechniques(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, 16)
	for _, t := range reorder.All() {
		names = append(names, t.Name())
	}
	// "auto" is a pseudo-technique: the advisor picks a concrete one per
	// matrix, so it is reported separately from the real orderings.
	s.writeJSON(w, http.StatusOK, map[string]any{"techniques": names, "pseudo": []string{"auto"}})
}

// handleReorder is the main endpoint: resolve the technique, obtain the
// matrix (uploaded MatrixMarket body or corpus reference), then serve the
// permutation from cache or compute it on the worker pool under the
// request deadline.
func (s *Server) handleReorder(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if s.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}
	q := r.URL.Query()

	techName := q.Get("technique")
	if techName == "" {
		techName = "RABBIT++"
	}
	// technique=auto defers resolution until the matrix is loaded: the
	// advisor picks the concrete technique from the matrix's features.
	auto := strings.EqualFold(techName, "auto")
	var tech reorder.OrdererCtx
	if !auto {
		var err error
		tech, err = s.cfg.Resolver(techName)
		if err != nil && strings.Contains(techName, " ") {
			// "+" in a query string decodes to a space and technique names
			// never contain spaces, so undo the damage for clients that send
			// technique=RABBIT++ without percent-encoding.
			fixed := strings.ReplaceAll(techName, " ", "+")
			if t2, err2 := s.cfg.Resolver(fixed); err2 == nil {
				tech, err, techName = t2, nil, fixed
			}
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	ctx := r.Context()
	timeout := s.cfg.MaxJobTime
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad timeout_ms %q", raw))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	m, matrixName, _, err := s.requestMatrix(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &maxErr), errors.Is(err, sparse.ErrTooLarge):
			status = http.StatusRequestEntityTooLarge
			s.metrics.sizeShed()
		case errors.Is(err, errUnknownMatrix):
			status = http.StatusNotFound
		}
		s.writeError(w, status, err)
		return
	}
	if !m.IsSquare() {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: reordering requires a square matrix, got %dx%d", m.NumRows, m.NumCols))
		return
	}

	// One SHA-256 pass per request: the digest keys the result cache, the
	// feature cache and the quality cache alike.
	digest := m.Digest()
	var adv *advisorInfo
	if auto {
		rec, err := s.advise(ctx, m, digest)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				status = http.StatusGatewayTimeout
			case errors.Is(err, context.Canceled):
				status = http.StatusServiceUnavailable
			}
			s.writeError(w, status, err)
			return
		}
		techName = rec.Best()
		if tech, err = s.cfg.Resolver(techName); err != nil {
			s.writeError(w, http.StatusInternalServerError,
				fmt.Errorf("serve: advisor chose unresolvable technique %q: %w", techName, err))
			return
		}
		s.metrics.advisorRecommended(techName)
		adv = &advisorInfo{Model: rec.Model, Confidence: rec.Confidence, Ranked: rec.Ranked}
	}

	wantQuality := true
	switch q.Get("quality") {
	case "0", "false", "off", "none":
		wantQuality = false
	}

	key := digest + "|" + techName
	if !wantQuality {
		key += "|noq"
	}
	res, cached, err := s.compute(ctx, key, digest, tech, m, wantQuality)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrSaturated):
			status = http.StatusTooManyRequests
			s.metrics.queueShed()
		case errors.Is(err, ErrShuttingDown):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, err)
		return
	}

	s.writeJSON(w, http.StatusOK, reorderResponse{
		Technique:   techName,
		Matrix:      matrixName,
		Rows:        res.Rows,
		Cols:        res.Cols,
		NNZ:         res.NNZ,
		Digest:      res.Digest,
		Cached:      cached,
		ElapsedMS:   float64(time.Since(started)) / float64(time.Millisecond),
		ComputeMS:   res.ComputeMS,
		Permutation: res.Perm,
		Quality:     res.Quality,
		Advisor:     adv,
	})
}

// advise returns the advisor's recommendation for the matrix, serving the
// feature vector from the digest-keyed cache when the matrix has been
// profiled before (the extraction, not the model, is the expensive part).
func (s *Server) advise(ctx context.Context, m *sparse.CSR, digest string) (advisor.Recommendation, error) {
	if v, ok := s.features.get(digest); ok {
		return advisor.Recommend(advisor.DefaultModel(), v.(advisor.Features)), nil
	}
	start := time.Now()
	f, err := advisor.FeaturesCtx(ctx, m)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	s.metrics.observeFeatures(time.Since(start))
	s.features.put(digest, f)
	return advisor.Recommend(advisor.DefaultModel(), f), nil
}

// errUnknownMatrix marks corpus references that do not resolve, mapped to
// 404 rather than 400.
var errUnknownMatrix = errors.New("serve: unknown corpus matrix")

// requestMatrix produces the request's matrix: a corpus reference via
// ?matrix=<name>, or an uploaded body bounded by the configured byte and
// dimension limits. The upload format is negotiated by Content-Type —
// sparse.BinaryCSRContentType selects the binary CSR codec, anything else
// parses as MatrixMarket text. The raw upload bytes are returned alongside
// so the sharding layer can forward a request without re-encoding.
func (s *Server) requestMatrix(w http.ResponseWriter, r *http.Request) (*sparse.CSR, string, []byte, error) {
	if name := r.URL.Query().Get("matrix"); name != "" {
		preset := s.cfg.Preset
		switch p := r.URL.Query().Get("preset"); p {
		case "", preset.String():
		case gen.Small.String():
			preset = gen.Small
		case gen.Full.String():
			preset = gen.Full
		default:
			return nil, "", nil, fmt.Errorf("serve: unknown preset %q", p)
		}
		m, err := s.matrices.get(name, preset)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%w: %q", errUnknownMatrix, name)
		}
		return m, name, nil, nil
	}
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, "", nil, errors.New("serve: POST a matrix body or pass ?matrix=<corpus name>")
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, "", nil, err
	}
	limits := sparse.MMLimits{
		MaxRows:    s.cfg.MaxRows,
		MaxCols:    s.cfg.MaxRows,
		MaxEntries: s.cfg.MaxEntries,
	}
	var m *sparse.CSR
	if uploadIsBinary(r.Header.Get("Content-Type")) {
		m, err = sparse.ReadBinaryCSRLimited(bytes.NewReader(raw), limits)
	} else {
		m, err = sparse.ReadMatrixMarketLimited(bytes.NewReader(raw), limits)
	}
	if err != nil {
		return nil, "", nil, err
	}
	return m, "", raw, nil
}

// uploadIsBinary reports whether the Content-Type selects the binary CSR
// codec. Parameters (charset etc.) are ignored; only the media type counts.
func uploadIsBinary(contentType string) bool {
	mt := contentType
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	return strings.EqualFold(strings.TrimSpace(mt), sparse.BinaryCSRContentType)
}

// compute serves the keyed result: LRU hit, singleflight piggyback on an
// identical in-flight computation, or a fresh job on the worker pool. The
// returned bool reports whether the result came from the cache.
func (s *Server) compute(ctx context.Context, key, digest string, tech reorder.OrdererCtx, m *sparse.CSR, wantQuality bool) (*reorderResult, bool, error) {
	if v, ok := s.cache.get(key); ok {
		s.metrics.cacheHit()
		return v.(*reorderResult), true, nil
	}
	s.metrics.cacheMissed()

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.flightMu.Unlock()
		s.metrics.dedupWait()
		return s.await(ctx, f)
	}
	// The job context is detached from any single request: the job keeps
	// running while at least one waiter remains interested, and is
	// cancelled when the last one leaves or the compute budget expires.
	//lint:allow ctxflow the job deliberately outlives the submitting request; refcounted cancel below
	jobCtx, jobCancel := context.WithTimeout(context.Background(), s.cfg.MaxJobTime)
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: jobCancel}
	s.flights[key] = f
	s.flightMu.Unlock()

	err := s.pool.trySubmit(func() {
		defer jobCancel()
		res, jobErr := s.runJob(jobCtx, tech, m, digest, wantQuality)
		if jobErr == nil {
			s.cache.put(key, res)
		}
		s.flightMu.Lock()
		f.res, f.err = res, jobErr
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	})
	if err != nil {
		// Shed: fail this flight so any follower that joined between the
		// map insert and this failure observes the same error.
		s.flightMu.Lock()
		f.err = err
		delete(s.flights, key)
		s.flightMu.Unlock()
		jobCancel()
		close(f.done)
		return nil, false, err
	}
	return s.await(ctx, f)
}

// await blocks until the flight completes or the request context fires,
// detaching (and cancelling the job when it was the last waiter) in the
// latter case.
func (s *Server) await(ctx context.Context, f *flight) (*reorderResult, bool, error) {
	select {
	case <-f.done:
		return f.res, false, f.err
	case <-ctx.Done():
		s.flightMu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
		}
		s.flightMu.Unlock()
		return nil, false, ctx.Err()
	}
}

// runJob executes one reordering on a pool worker: the technique's
// cancellable ordering, then (unless disabled) the community-quality
// metrics, which are cached per matrix digest so a technique sweep over
// one matrix detects communities once. A RABBIT-family job detects once
// and derives both its ordering and, if not cached, its quality from that
// detection.
func (s *Server) runJob(ctx context.Context, tech reorder.OrdererCtx, m *sparse.CSR, digest string, wantQuality bool) (*reorderResult, error) {
	start := time.Now()
	var p sparse.Permutation
	var rr *core.RabbitResult
	var err error
	derive, shared := reorder.FromRabbit(tech)
	po, parallel := tech.(reorder.ParallelOrderer)
	switch {
	case shared:
		if rr, err = core.RabbitCtx(ctx, m); err == nil {
			err = ctx.Err()
		}
		if err == nil {
			p = derive(m, rr)
		}
	case parallel:
		p, err = po.OrderParallelCtx(ctx, m, reorder.Options{Workers: s.cfg.OrderWorkers})
	default:
		p, err = tech.OrderCtx(ctx, m)
	}
	s.metrics.observeJob(tech.Name(), time.Since(start), err != nil)
	if err != nil {
		return nil, err
	}
	res := &reorderResult{
		Perm:      p,
		Rows:      m.NumRows,
		Cols:      m.NumCols,
		NNZ:       m.NNZ(),
		Digest:    digest,
		ComputeMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if wantQuality {
		if res.Quality, err = s.qualityFor(ctx, digest, m, rr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// qualityFor returns the digest's community-quality stats, computing and
// caching them on first use from rr, the job's own RABBIT detection, or
// from a fresh detection when rr is nil.
func (s *Server) qualityFor(ctx context.Context, digest string, m *sparse.CSR, rr *core.RabbitResult) (*qualityStats, error) {
	if v, ok := s.quality.get(digest); ok {
		return v.(*qualityStats), nil
	}
	if rr == nil {
		var err error
		if rr, err = core.RabbitCtx(ctx, m); err != nil {
			return nil, err
		}
	}
	cs := core.Analyze(m, rr.Communities)
	qs := &qualityStats{
		Insularity:  cs.Insularity,
		Modularity:  cs.Modularity,
		DegreeSkew:  cs.Skew,
		Communities: cs.Communities,
	}
	s.quality.put(digest, qs)
	return qs, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding errors past the header are connection-level; nothing
	// useful remains to send the client.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
