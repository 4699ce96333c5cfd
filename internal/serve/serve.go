// Package serve implements reorderd, the long-lived matrix-reordering
// service. The paper's Figure 9 shows reordering cost is amortized only
// when a permutation is computed once and reused across many SpMV/SpMM
// invocations; this service is that amortization made operational: a
// bounded worker pool computes permutations under per-request deadlines,
// a content-addressed job store (matrix digest × technique) is the one
// home of results, so every repeat request — synchronous /reorder or
// async /jobs, from any client or peer — joins or hits the same job, and
// queue-depth / request-size load shedding keeps preprocessing latency
// under control (the concern Asudeh et al. and the BOBA line of work
// raise about reordering in production).
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
	// MaxBodyBytes bounds uploaded MatrixMarket bodies; larger uploads are
	// shed with 413 (default 64 MiB).
	MaxBodyBytes int64
	// MaxRows bounds the declared row count of uploaded matrices, applied
	// before any dimension-proportional allocation (default 1<<22).
	MaxRows int32
	// MaxEntries likewise bounds the declared entry count (default 1<<26).
	MaxEntries int
	// MaxJobTime caps both the client-requested deadline and the compute
	// budget of a job, counted from when it starts running (default 2m).
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
	// StoreEntries bounds the completed jobs, and so the results, retained
	// by the content-addressed job store (default 1024). Queued/running
	// jobs are never evicted. The digest-keyed quality and feature caches
	// take the same bound.
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
	quality  *lruCache // digest → *qualityStats
	features *lruCache // digest → advisor.Features (technique=auto)
	matrices *matrixCache
	metrics  *metrics
	store    *jobStore // the one home of results
	ring     *ring     // nil in single-node mode (every key is self-owned)

	closed atomic.Bool
}

// reorderResult is the stored outcome of one job.
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

// reorderResponse is the /reorder JSON body. Handlers leave Permutation
// nil and hand the permutation to writePermuted.
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
		quality:  newLRUCache(cfg.StoreEntries),
		features: newLRUCache(cfg.StoreEntries),
		matrices: newMatrixCache(),
		metrics:  newMetrics(),
		store:    newJobStore(cfg.StoreEntries),
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
	s.metrics.render(w, s.pool.depth(), s.store.len())
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

// handleReorder is the synchronous endpoint: admit the request, then
// answer from its job — at once when the job is already done, otherwise
// once it completes, as one of its waiters, under the request deadline.
func (s *Server) handleReorder(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	timeout := s.cfg.MaxJobTime
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			s.fail(w, badRequest{fmt.Errorf("serve: bad timeout_ms %q", raw)})
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	a := s.admit(ctx, w, r)
	if a == nil {
		return
	}

	j, existed, cached := s.store.acquire(a.id, a.digest, a.techName, a.quality, false)
	if cached {
		s.metrics.cacheHit()
	} else {
		s.metrics.cacheMissed()
		if existed {
			s.metrics.dedupWait()
		} else {
			// A refusal completes j with its error, which the wait reports.
			_ = s.start(j, a)
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			s.store.leave(j)
			s.fail(w, ctx.Err())
			return
		}
	}
	snap := s.store.snapshot(j)
	if snap.Err != nil {
		s.fail(w, snap.Err)
		return
	}
	s.writePermuted(w, http.StatusOK, reorderResponse{
		Technique: a.techName,
		Matrix:    a.matrix,
		Rows:      snap.Res.Rows,
		Cols:      snap.Res.Cols,
		NNZ:       snap.Res.NNZ,
		Digest:    snap.Res.Digest,
		Cached:    cached,
		ElapsedMS: float64(time.Since(started)) / float64(time.Millisecond),
		ComputeMS: snap.Res.ComputeMS,
		Quality:   snap.Res.Quality,
		Advisor:   a.advisor,
	}, snap.Res.Perm)
}

// admission is a request that passed the front half both endpoints
// share: its matrix, the concrete technique to run and its job's ID.
type admission struct {
	m        *sparse.CSR // nil while upload holds an undecoded binary body
	upload   []byte      // a checked binary body until csr decodes it
	matrix   string      // corpus name; empty for uploads
	digest   string
	tech     reorder.OrdererCtx
	techName string
	quality  bool
	id       string
	advisor  *advisorInfo // technique=auto only
}

// admit is the front half of /reorder and POST /jobs: resolve the
// technique, ingest the matrix, route it to its ring owner, run the
// advisor for technique=auto under ctx, and derive the job ID. It returns
// nil once it has written the response itself: an error, or the owner's
// answer to a forward.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request) *admission {
	if s.closed.Load() {
		s.fail(w, ErrShuttingDown)
		return nil
	}
	q := r.URL.Query()
	a := &admission{techName: q.Get("technique"), quality: true}
	if a.techName == "" {
		a.techName = "RABBIT++"
	}
	// technique=auto defers resolution until the matrix is loaded: the
	// advisor picks the concrete technique from the matrix's features.
	auto := strings.EqualFold(a.techName, "auto")
	if !auto {
		var err error
		a.tech, err = s.cfg.Resolver(a.techName)
		if err != nil && strings.Contains(a.techName, " ") {
			// "+" in a query string decodes to a space and technique names
			// never contain spaces, so undo the damage for clients that send
			// technique=RABBIT++ without percent-encoding.
			fixed := strings.ReplaceAll(a.techName, " ", "+")
			if t2, err2 := s.cfg.Resolver(fixed); err2 == nil {
				a.tech, err, a.techName = t2, nil, fixed
			}
		}
		if err != nil {
			s.fail(w, badRequest{err})
			return nil
		}
	}

	// One SHA-256 pass per request: the digest routes the request and keys
	// the job store, the feature cache and the quality cache alike.
	raw, err := s.ingest(w, r, a)
	if err != nil {
		s.fail(w, badRequest{err})
		return nil
	}
	digestHex := strings.TrimPrefix(a.digest, "sha256:")
	if !s.ring.isSelf(digestHex) && r.Header.Get(forwardHeader) == "" {
		s.forward(w, r, s.ring.owner(digestHex), raw)
		return nil
	}

	if auto {
		// The owner (not the entry peer) runs the advisor so the
		// digest-keyed feature cache accumulates where the matrix lives.
		rec, err := s.advise(ctx, a)
		if err != nil {
			s.fail(w, err)
			return nil
		}
		a.techName = rec.Best()
		if a.tech, err = s.cfg.Resolver(a.techName); err != nil {
			s.fail(w, fmt.Errorf("serve: advisor chose unresolvable technique %q: %w", a.techName, err))
			return nil
		}
		s.metrics.advisorRecommended(a.techName)
		a.advisor = &advisorInfo{Model: rec.Model, Confidence: rec.Confidence, Ranked: rec.Ranked}
	}

	switch q.Get("quality") {
	case "0", "false", "off", "none":
		a.quality = false
	}
	a.id = jobID(digestHex, a.techName, a.quality)
	return a
}

// badRequest marks an error the request itself caused; fail answers it
// with 400 unless the wrapped error maps to a more specific status.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// fail answers a failed request with the status its error maps to, the
// one mapping every endpoint shares.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr), errors.Is(err, sparse.ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
		s.metrics.sizeShed()
	case errors.Is(err, errUnknownMatrix):
		status = http.StatusNotFound
	case errors.As(err, new(badRequest)):
		status = http.StatusBadRequest
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
		s.metrics.queueShed()
	case errors.Is(err, ErrShuttingDown), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	s.writeError(w, status, err)
}

// advise returns the advisor's recommendation for the admitted matrix,
// serving the feature vector from the digest-keyed cache when the matrix
// has been profiled before (the extraction, not the model, is the
// expensive part).
func (s *Server) advise(ctx context.Context, a *admission) (advisor.Recommendation, error) {
	if v, ok := s.features.get(a.digest); ok {
		return advisor.Recommend(advisor.DefaultModel(), v.(advisor.Features)), nil
	}
	m, err := a.csr()
	if err != nil {
		return advisor.Recommendation{}, err
	}
	start := time.Now()
	f, err := advisor.FeaturesCtx(ctx, m)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	s.metrics.observeFeatures(time.Since(start))
	s.features.put(a.digest, f)
	return advisor.Recommend(advisor.DefaultModel(), f), nil
}

// errUnknownMatrix marks corpus references that do not resolve, mapped to
// 404 rather than 400.
var errUnknownMatrix = errors.New("serve: unknown corpus matrix")

// ingest loads the request's matrix into a and sets its digest: a corpus
// reference via ?matrix=<name>, or an uploaded body bounded by the
// configured byte and dimension limits. The upload format is negotiated by
// Content-Type — sparse.BinaryCSRContentType selects the binary CSR codec,
// anything else parses as MatrixMarket text. A binary body is only
// checked here, and its digest is the SHA-256 of its bytes; csr decodes it
// if a miss needs the matrix. MatrixMarket text has no canonical form, so
// it is parsed and digested from its content. The raw upload is returned
// so the sharding layer can forward it as it came.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, a *admission) ([]byte, error) {
	if name := r.URL.Query().Get("matrix"); name != "" {
		preset := s.cfg.Preset
		if p := r.URL.Query().Get("preset"); p != "" {
			var err error
			if preset, err = gen.ParsePreset(p); err != nil {
				return nil, err
			}
		}
		m, err := s.matrices.get(name, preset)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", errUnknownMatrix, name)
		}
		a.matrix = name
		return nil, a.setMatrix(m)
	}
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, errors.New("serve: POST a matrix body or pass ?matrix=<corpus name>")
	}
	raw, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	limits := sparse.MMLimits{
		MaxRows:    s.cfg.MaxRows,
		MaxCols:    s.cfg.MaxRows,
		MaxEntries: s.cfg.MaxEntries,
	}
	if !uploadIsBinary(r.Header.Get("Content-Type")) {
		m, err := sparse.ReadMatrixMarketLimited(bytes.NewReader(raw), limits)
		if err != nil {
			return nil, err
		}
		return raw, a.setMatrix(m)
	}
	body, err := sparse.CheckBinaryCSR(raw, limits)
	if err != nil {
		return nil, err
	}
	if err := squareOnly(body.Rows, body.Cols); err != nil {
		return nil, err
	}
	a.upload, a.digest = raw, body.Digest()
	return raw, nil
}

// readBody reads the whole upload through MaxBytesReader, so an oversized
// body still gets 413. A body that declares its length n fills a buffer
// that starts at min(n, 1 MiB) and doubles, up to exactly n, only once
// the bytes received have filled it: a body of at most 1 MiB takes one
// allocation, and a client that declares a large body and stalls pins
// no more than 1 MiB or twice what it sent, not what it declared. Only a
// chunked body, or one declared past the limit, grows through io.ReadAll.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	n := r.ContentLength
	if n < 0 || n > s.cfg.MaxBodyBytes {
		return io.ReadAll(body)
	}
	raw := make([]byte, 0, min(n, 1<<20))
	for {
		k, err := io.ReadFull(body, raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+k]
		if err != nil {
			return nil, err
		}
		if int64(len(raw)) == n {
			return raw, nil
		}
		grown := make([]byte, len(raw), min(n, 2*int64(len(raw))))
		copy(grown, raw)
		raw = grown
	}
}

// setMatrix admits a decoded matrix and digests its content.
func (a *admission) setMatrix(m *sparse.CSR) error {
	if err := squareOnly(m.NumRows, m.NumCols); err != nil {
		return err
	}
	a.m, a.digest = m, m.Digest()
	return nil
}

// csr returns the admitted matrix, decoding a binary upload the first time
// a miss needs it. The body is dropped once decoded, so neither the
// admission nor a queued job keeps it.
func (a *admission) csr() (*sparse.CSR, error) {
	if a.m == nil {
		m, err := sparse.ReadBinaryCSR(bytes.NewReader(a.upload))
		if err != nil {
			return nil, badRequest{err}
		}
		a.m, a.upload = m, nil
	}
	return a.m, nil
}

// squareOnly refuses a matrix that is not square: reordering is symmetric.
func squareOnly(rows, cols int32) error {
	if rows != cols {
		return fmt.Errorf("serve: reordering requires a square matrix, got %dx%d", rows, cols)
	}
	return nil
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

// start runs j's computation on the worker pool, decoding a binary
// upload first. A body that does not decode (400) or the pool refusing
// the job (429 when saturated, 503 when draining) drops j from the store
// and completes it with that error, so every request that joined it in
// the meantime sees the same error.
func (s *Server) start(j *storedJob, a *admission) error {
	m, err := a.csr()
	if err == nil {
		err = s.pool.trySubmit(func() {
			defer j.cancel()
			s.store.setRunning(j)
			ctx, cancel := context.WithTimeout(j.ctx, s.cfg.MaxJobTime)
			defer cancel()
			res, err := s.runJob(ctx, a.tech, m, a.digest, a.quality)
			s.store.complete(j, res, err)
		})
	}
	if err != nil {
		j.cancel()
		s.store.remove(j)
		s.store.complete(j, nil, err)
	}
	return err
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
	if derive, shared := reorder.FromRabbit(tech); shared {
		if rr, err = core.RabbitCtx(ctx, m); err == nil {
			err = ctx.Err()
		}
		if err == nil {
			p = derive(m, rr)
		}
	} else {
		p, err = reorder.OrderWith(ctx, tech, m, reorder.Options{Workers: s.cfg.OrderWorkers})
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
	s.writePermuted(w, status, v, nil)
}

// writePermuted answers with what json.NewEncoder(w).Encode writes for v
// with perm in its one permutation field, which must be nil in v: it
// encodes v and then writes perm with strconv.AppendInt in place of the
// field's null, because encoding/json walks a []int32 by reflection and
// re-compacts what a json.Marshaler returns. A nil perm leaves the null.
func (s *Server) writePermuted(w http.ResponseWriter, status int, v any, perm sparse.Permutation) {
	b, err := json.Marshal(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err != nil {
		// Encode writes nothing for a value it cannot encode, and the
		// status is already sent.
		return
	}
	if perm != nil {
		b = splicePermutation(b, perm)
	}
	// Write errors past the header are connection-level; nothing useful
	// remains to send the client.
	_, _ = w.Write(append(b, '\n'))
}

// splicePermutation returns env with perm in place of its
// "permutation":null. JSON escapes every quote inside a string, so the
// first match is the field's own key.
func splicePermutation(env []byte, perm sparse.Permutation) []byte {
	const key = `"permutation":`
	at := bytes.Index(env, []byte(key+"null"))
	if at < 0 {
		panic("serve: writePermuted needs a value whose permutation is nil")
	}
	at += len(key)
	// The entries of a permutation of n rows are below n, so none has more
	// digits than n; the bound also covers the final newline.
	width := len(strconv.Itoa(len(perm))) + 1
	b := make([]byte, 0, len(env)+width*len(perm)+2)
	b = append(b, env[:at]...)
	b = append(b, '[')
	for i, v := range perm {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	return append(b, env[at+len("null"):]...)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
