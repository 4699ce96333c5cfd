package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/reorder"
	"repro/internal/sparse"
)

// forwardHeader marks a request already routed by a peer. A forwarded
// request is always served locally — even if the receiving peer's ring
// disagrees about ownership (a transient of inconsistent peer lists) — so
// a request can hop at most once and routing bugs degrade to an extra
// local computation, never a forwarding loop.
const forwardHeader = "X-Reorderd-Forwarded"

// maxLongPoll caps GET /jobs/{id}?wait= blocking time. Clients needing
// longer simply poll again; the cap keeps forwarded long-polls well inside
// any sane proxy or client timeout.
const maxLongPoll = 30 * time.Second

// jobID derives the content address of a job: the matrix digest hex
// (which alone determines the owning peer, so all techniques for one
// matrix land on the same peer and share its matrix-level caches)
// followed by a short hash of the technique and quality flag. Identical
// submissions — from any client, via any peer — produce identical IDs.
func jobID(digestHex, technique string, quality bool) string {
	suffix := technique
	if !quality {
		suffix += "|noq"
	}
	h := sha256.Sum256([]byte(suffix))
	return digestHex + "." + hex.EncodeToString(h[:8])
}

// jobDigestHex extracts and validates the digest-hex prefix of a job ID,
// the part that routes the job on the consistent-hash ring.
func jobDigestHex(id string) (string, bool) {
	dot := strings.IndexByte(id, '.')
	if dot != 64 || len(id) != 64+1+16 {
		return "", false
	}
	for _, c := range id {
		if c == '.' {
			continue
		}
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return id[:dot], true
}

// jobResponse is the JSON body of both job endpoints. Result is present
// only once Status is "done"; Error only once it is "failed".
type jobResponse struct {
	JobID       string           `json:"job_id"`
	Status      string           `json:"status"`
	Technique   string           `json:"technique"`
	Digest      string           `json:"digest"`
	Owner       string           `json:"owner,omitempty"`
	StoreHit    bool             `json:"store_hit,omitempty"`
	CompletedMS float64          `json:"completed_ms,omitempty"`
	Error       string           `json:"error,omitempty"`
	Result      *reorderResponse `json:"result,omitempty"`
}

// handleJobs serves POST /jobs: parse and digest the matrix, route to the
// owning peer, and either return the existing job (store hit) or admit a
// new one to the worker pool, responding immediately with the job ID.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST a matrix to /jobs; poll GET /jobs/{id}"))
		return
	}
	if s.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}
	q := r.URL.Query()
	techName := q.Get("technique")
	if techName == "" {
		techName = "RABBIT++"
	}
	auto := strings.EqualFold(techName, "auto")
	var tech reorder.OrdererCtx
	if !auto {
		var err error
		tech, err = s.cfg.Resolver(techName)
		if err != nil && strings.Contains(techName, " ") {
			// Tolerate an unencoded '+' (decoded to space), as /reorder does.
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

	m, _, raw, err := s.requestMatrix(w, r)
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

	digest := m.Digest()
	digestHex := strings.TrimPrefix(digest, "sha256:")
	if !s.ring.isSelf(digestHex) && r.Header.Get(forwardHeader) == "" {
		s.forward(w, r, s.ring.owner(digestHex), raw)
		return
	}

	if auto {
		// The owner (not the entry peer) runs the advisor so the
		// digest-keyed feature cache accumulates where the matrix lives.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxJobTime)
		rec, err := s.advise(ctx, m, digest)
		cancel()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		techName = rec.Best()
		if tech, err = s.cfg.Resolver(techName); err != nil {
			s.writeError(w, http.StatusInternalServerError,
				fmt.Errorf("serve: advisor chose unresolvable technique %q: %w", techName, err))
			return
		}
		s.metrics.advisorRecommended(techName)
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

	s.metrics.jobSubmitted()
	j, existed := s.store.getOrCreate(jobID(digestHex, techName, wantQuality), key, digest, techName, wantQuality)
	if existed {
		s.metrics.storeHit()
		s.writeJob(w, http.StatusOK, j, true)
		return
	}
	// A brand-new job whose result is already resident in the LRU (e.g.
	// computed by the synchronous path) completes without touching a worker.
	if v, ok := s.cache.get(key); ok {
		s.metrics.cacheHit()
		s.store.complete(j, v.(*reorderResult), nil)
		s.writeJob(w, http.StatusOK, j, false)
		return
	}
	s.metrics.cacheMissed()
	if err := s.pool.trySubmit(func() { s.runStoredJob(j, tech, m) }); err != nil {
		s.store.remove(j.id)
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrSaturated):
			status = http.StatusTooManyRequests
			s.metrics.queueShed()
		case errors.Is(err, ErrShuttingDown):
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, err)
		return
	}
	s.writeJob(w, http.StatusAccepted, j, false)
}

// runStoredJob executes one async job on a pool worker. The context is
// detached from any request — the job ID has already been handed to the
// client, so the work must finish (bounded by MaxJobTime) even if every
// poller disconnects.
func (s *Server) runStoredJob(j *storedJob, tech reorder.OrdererCtx, m *sparse.CSR) {
	//lint:allow ctxflow async jobs outlive the submitting request by design; MaxJobTime bounds them
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxJobTime)
	defer cancel()
	s.store.setRunning(j)
	res, err := s.runJob(ctx, tech, m, j.digest, j.quality)
	if err == nil {
		s.cache.put(j.key, res)
	}
	s.store.complete(j, res, err)
}

// handleJobGet serves GET /jobs/{id}, optionally long-polling: ?wait=MS
// blocks until the job completes, the wait elapses (capped at 30s), or
// the client disconnects, then reports the state observed at that moment.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: GET /jobs/{id}"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	digestHex, ok := jobDigestHex(id)
	if !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed job ID %q", id))
		return
	}
	if !s.ring.isSelf(digestHex) && r.Header.Get(forwardHeader) == "" {
		s.forward(w, r, s.ring.owner(digestHex), nil)
		return
	}
	j := s.store.get(id)
	if j == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q (completed jobs are evicted under store pressure)", id))
		return
	}
	if raw := r.URL.Query().Get("wait"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad wait %q", raw))
			return
		}
		wait := time.Duration(ms) * time.Millisecond
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		select {
		case <-j.done:
		default:
			if wait > 0 {
				s.metrics.longPollWait()
				timer := time.NewTimer(wait)
				select {
				case <-j.done:
				case <-timer.C:
				case <-r.Context().Done():
				}
				timer.Stop()
			}
		}
	}
	s.writeJob(w, http.StatusOK, j, false)
}

// handleRing serves GET /ring: the peer topology this instance routes by,
// so operators and load generators can see the shard layout.
func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	peers := []string{s.cfg.Self}
	if s.ring != nil {
		peers = s.ring.peers
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"self":            s.cfg.Self,
		"peers":           peers,
		"vnodes_per_peer": ringReplicas,
		"store_entries":   s.store.len(),
	})
}

// writeJob renders a job's current state. storeHit marks a POST that
// found the job already resident.
func (s *Server) writeJob(w http.ResponseWriter, status int, j *storedJob, storeHit bool) {
	snap := s.store.snapshot(j)
	resp := jobResponse{
		JobID:       snap.ID,
		Status:      snap.Status,
		Technique:   snap.Technique,
		Digest:      snap.Digest,
		Owner:       s.cfg.Self,
		StoreHit:    storeHit,
		CompletedMS: snap.CompletedMS,
		Error:       snap.ErrMsg,
	}
	if snap.Status == jobDone && snap.Res != nil {
		resp.Result = &reorderResponse{
			Technique:   snap.Technique,
			Rows:        snap.Res.Rows,
			Cols:        snap.Res.Cols,
			NNZ:         snap.Res.NNZ,
			Digest:      snap.Res.Digest,
			Cached:      true,
			ComputeMS:   snap.Res.ComputeMS,
			Permutation: snap.Res.Perm,
			Quality:     snap.Res.Quality,
		}
	}
	if status == http.StatusAccepted {
		w.Header().Set("Location", "/jobs/"+snap.ID)
	}
	s.writeJSON(w, status, resp)
}

// forward proxies the request to the owning peer, marking it with
// forwardHeader so it cannot hop twice, and relays the peer's response
// verbatim. body is the already-read upload (nil for GETs and corpus
// references, whose routing information travels in the query string).
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	u := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		s.metrics.forwardFailed()
		s.writeError(w, http.StatusBadGateway, fmt.Errorf("serve: building forward to %s: %w", owner, err))
		return
	}
	req.Header.Set(forwardHeader, s.cfg.Self)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := s.cfg.ForwardClient.Do(req)
	if err != nil {
		s.metrics.forwardFailed()
		s.writeError(w, http.StatusBadGateway, fmt.Errorf("serve: forwarding to %s: %w", owner, err))
		return
	}
	defer resp.Body.Close()
	s.metrics.forwarded()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Reorderd-Owner", owner)
	w.WriteHeader(resp.StatusCode)
	// A relay error past the header is connection-level; nothing useful
	// remains to send either side.
	_, _ = io.Copy(w, resp.Body)
}
