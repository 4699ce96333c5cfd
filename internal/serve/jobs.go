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

// handleJobs serves POST /jobs: admit the request, then either return the
// existing job (store hit), which the submission now holds, or start a new
// one, responding immediately with the job ID.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("serve: POST a matrix to /jobs; poll GET /jobs/{id}"))
		return
	}
	// The job outlives this request, so only the advisor runs under it,
	// within the compute budget.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxJobTime)
	defer cancel()
	a := s.admit(ctx, w, r)
	if a == nil {
		return
	}

	s.metrics.jobSubmitted()
	j, existed, _ := s.store.acquire(a.id, a.digest, a.techName, a.quality, true)
	if existed {
		s.metrics.storeHit()
		s.writeJob(w, http.StatusOK, s.store.snapshot(j), true)
		return
	}
	s.metrics.cacheMissed()
	// The 202 reports the job as admitted: a worker may finish it before
	// the response is written, and the poll reports that.
	queued := s.store.snapshot(j)
	if err := s.start(j, a); err != nil {
		s.fail(w, err)
		return
	}
	s.writeJob(w, http.StatusAccepted, queued, false)
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
	s.writeJob(w, http.StatusOK, s.store.snapshot(j), false)
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

// writeJob renders a job's state. storeHit marks a POST that found the
// job already resident.
func (s *Server) writeJob(w http.ResponseWriter, status int, snap jobSnapshot, storeHit bool) {
	resp := jobResponse{
		JobID:       snap.ID,
		Status:      snap.Status,
		Technique:   snap.Technique,
		Digest:      snap.Digest,
		Owner:       s.cfg.Self,
		StoreHit:    storeHit,
		CompletedMS: snap.CompletedMS,
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	var perm sparse.Permutation
	if snap.Status == jobDone && snap.Res != nil {
		resp.Result = &reorderResponse{
			Technique: snap.Technique,
			Rows:      snap.Res.Rows,
			Cols:      snap.Res.Cols,
			NNZ:       snap.Res.NNZ,
			Digest:    snap.Res.Digest,
			Cached:    true,
			ComputeMS: snap.Res.ComputeMS,
			Quality:   snap.Res.Quality,
		}
		perm = snap.Res.Perm
	}
	if status == http.StatusAccepted {
		w.Header().Set("Location", "/jobs/"+snap.ID)
	}
	s.writePermuted(w, status, resp, perm)
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
