// Command reorderd serves matrix reordering over HTTP: clients POST a
// MatrixMarket body (or reference a generated corpus matrix) to /reorder
// and get back the permutation plus community-quality metrics. Every
// result lives in one content-addressed job store keyed by (matrix digest
// × technique), so repeated requests amortize the reordering cost, the
// regime in which the paper's Figure 9 shows community reordering pays
// for itself.
//
// Beside the synchronous /reorder endpoint, which waits on its job, the
// service exposes the same jobs through an async API (POST /jobs,
// GET /jobs/{id}), accepts a compact binary CSR upload format negotiated
// by Content-Type, and can shard matrix ownership across a static peer
// ring (-self/-peers), forwarding both endpoints to the owner.
// docs/SERVING.md documents the full surface.
//
// Usage:
//
//	reorderd [-addr :8377] [-workers N] [-queue N] [-store N]
//	         [-max-body-bytes N] [-max-rows N] [-max-timeout D] [-preset small]
//	         [-self URL -peers URL,URL,...]
//
// The -smoke flag runs an in-process self-test (start, reorder a small
// matrix over real HTTP, validate the permutation, exercise the async job
// API and binary upload path, drain) and exits; the check script uses it
// as the service smoke test.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reorderd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8377", "listen address")
		workers    = flag.Int("workers", 0, "reordering worker count (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "job queue depth before 429 load shedding")
		maxBody    = flag.Int64("max-body-bytes", 64<<20, "maximum upload size before 413")
		maxRows    = flag.Int("max-rows", 1<<22, "maximum declared rows/cols in an upload")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "cap on per-request compute deadlines")
		preset     = flag.String("preset", gen.Small.String(), "corpus preset for ?matrix= references (small|full)")
		orderW     = flag.Int("order-workers", 1, "intra-job goroutines for parallel techniques (results identical at any count)")
		storeN     = flag.Int("store", 1024, "completed jobs, and so results (matrix digest x technique), the job store retains")
		self       = flag.String("self", "", "this peer's base URL in a sharded deployment (e.g. http://host:8377)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs forming the consistent-hash ring (include -self)")
		smoke      = flag.Bool("smoke", false, "run an in-process self-test and exit")
	)
	flag.Parse()

	p, err := gen.ParsePreset(*preset)
	if err != nil {
		return err
	}
	if !check.FitsInt32(*maxRows) {
		return fmt.Errorf("-max-rows %d overflows int32", *maxRows)
	}
	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		StoreEntries: *storeN,
		MaxBodyBytes: *maxBody,
		MaxRows:      check.SafeInt32(*maxRows),
		MaxJobTime:   *maxTimeout,
		Preset:       p,
		OrderWorkers: *orderW,
		Self:         *self,
	}
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self so this instance knows its own ring position")
		}
		for _, peer := range strings.Split(*peers, ",") {
			if peer = strings.TrimSpace(peer); peer != "" {
				cfg.Peers = append(cfg.Peers, peer)
			}
		}
	}
	if *smoke {
		return runSmoke(cfg)
	}
	return runServer(*addr, cfg)
}

// runServer serves until SIGINT/SIGTERM, then drains: stop accepting,
// finish in-flight requests and queued jobs, and exit cleanly.
func runServer(addr string, cfg serve.Config) error {
	s := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "reorderd: listening on %s\n", addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "reorderd: %v, draining\n", sig)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	s.Close()
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	return nil
}

// runSmoke exercises the full service surface in-process: real listener,
// real HTTP round trips, permutation validity, cache-hit accounting, and a
// clean drain. Exit status is the test verdict.
func runSmoke(cfg serve.Config) error {
	s := serve.New(cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// A small two-community matrix: dense 0..3 block plus dense 4..7 block
	// with one bridging edge, symmetric, in MatrixMarket form.
	m := twoCommunityMatrix()
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, m); err != nil {
		return err
	}

	body := mm.Bytes()
	var first serveReply
	if err := postReorder(base, body, &first); err != nil {
		return fmt.Errorf("cold request: %w", err)
	}
	if first.Cached {
		return fmt.Errorf("cold request unexpectedly served from cache")
	}
	if err := validatePerm(first.Permutation, m.NumRows); err != nil {
		return err
	}
	if first.Quality == nil {
		return fmt.Errorf("response missing quality metrics")
	}

	var second serveReply
	if err := postReorder(base, body, &second); err != nil {
		return fmt.Errorf("warm request: %w", err)
	}
	if !second.Cached {
		return fmt.Errorf("warm request missed the cache")
	}
	if fmt.Sprint(first.Permutation) != fmt.Sprint(second.Permutation) {
		return fmt.Errorf("cache hit returned a different permutation")
	}
	if hits, _ := s.Metrics(); hits < 1 {
		return fmt.Errorf("cache hit counter not incremented (hits=%d)", hits)
	}

	// technique=auto: the advisor must pick a concrete technique, name it
	// in the response, and return a valid permutation.
	var auto serveReply
	if err := postReorderTech(base, "auto", body, &auto); err != nil {
		return fmt.Errorf("auto request: %w", err)
	}
	if auto.Technique == "" || strings.EqualFold(auto.Technique, "auto") {
		return fmt.Errorf("auto request did not resolve to a concrete technique (got %q)", auto.Technique)
	}
	if auto.Advisor == nil || len(auto.Advisor.Ranked) == 0 {
		return fmt.Errorf("auto response missing the advisor block")
	}
	if err := validatePerm(auto.Permutation, m.NumRows); err != nil {
		return fmt.Errorf("auto permutation: %w", err)
	}

	// Sweep every registered technique, with the list fetched from the
	// service itself (/techniques) rather than hardcoded, so a technique
	// added to the reorder registry is exercised here automatically.
	names, err := fetchTechniques(base)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("/techniques returned no techniques")
	}
	for _, name := range names {
		var reply serveReply
		if err := postReorderTech(base, url.QueryEscape(name), body, &reply); err != nil {
			return fmt.Errorf("technique %s: %w", name, err)
		}
		if err := validatePerm(reply.Permutation, m.NumRows); err != nil {
			return fmt.Errorf("technique %s: %w", name, err)
		}
	}

	// Async job API over the binary upload format: the synchronous RABBIT
	// request above left its job in the store, so the first submission is
	// already a store hit, done when polled, with the same permutation, and
	// so is a resubmission.
	var bin bytes.Buffer
	if err := sparse.WriteBinaryCSR(&bin, m); err != nil {
		return err
	}
	job, status, err := postJob(base, bin.Bytes())
	if err != nil {
		return fmt.Errorf("job submit: %w", err)
	}
	if status != http.StatusOK || !job.StoreHit {
		return fmt.Errorf("job submit after /reorder was not a store hit (status %d, store_hit %v)", status, job.StoreHit)
	}
	if job, err = getJob(base, job.JobID); err != nil {
		return fmt.Errorf("job poll: %w", err)
	}
	if job.Status != "done" || job.Result == nil {
		return fmt.Errorf("job finished in state %q (error %q)", job.Status, job.Error)
	}
	if err := validatePerm(job.Result.Permutation, m.NumRows); err != nil {
		return fmt.Errorf("job permutation: %w", err)
	}
	if fmt.Sprint(job.Result.Permutation) != fmt.Sprint(first.Permutation) {
		return fmt.Errorf("async job and synchronous /reorder disagree on the permutation")
	}
	rejob, status, err := postJob(base, bin.Bytes())
	if err != nil {
		return fmt.Errorf("job resubmit: %w", err)
	}
	if status != http.StatusOK || !rejob.StoreHit {
		return fmt.Errorf("job resubmit was not a store hit (status %d, store_hit %v)", status, rejob.StoreHit)
	}
	// A binary body is keyed by its bytes, so one byte past its declared
	// sections is refused, never answered from the stored job.
	if _, status, _ = postJob(base, append(bin.Bytes(), 0)); status != http.StatusBadRequest {
		return fmt.Errorf("binary body with a trailing byte: status %d, want 400", status)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", mresp.StatusCode)
	}
	if err != nil {
		return err
	}
	if !strings.Contains(string(mbody), "reorderd_advisor_recommendations_total") {
		return fmt.Errorf("metrics missing advisor recommendation counter")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	s.Close()
	fmt.Println("reorderd smoke: ok")
	return nil
}

type serveReply struct {
	Technique   string  `json:"technique"`
	Cached      bool    `json:"cached"`
	Permutation []int32 `json:"permutation"`
	Quality     *struct {
		Insularity float64 `json:"insularity"`
		Modularity float64 `json:"modularity"`
	} `json:"quality"`
	Advisor *struct {
		Model  string `json:"model"`
		Ranked []struct {
			Technique string `json:"technique"`
		} `json:"ranked"`
	} `json:"advisor"`
}

func postReorder(base string, body []byte, out *serveReply) error {
	return postReorderTech(base, "RABBIT", body, out)
}

// jobReply mirrors the async job API's JSON body.
type jobReply struct {
	JobID    string      `json:"job_id"`
	Status   string      `json:"status"`
	StoreHit bool        `json:"store_hit"`
	Error    string      `json:"error"`
	Result   *serveReply `json:"result"`
}

// postJob submits a binary-CSR body to the async job API using the same
// technique the synchronous smoke requests use, so their permutations are
// directly comparable.
func postJob(base string, body []byte) (jobReply, int, error) {
	resp, err := http.Post(base+"/jobs?technique=RABBIT", sparse.BinaryCSRContentType, bytes.NewReader(body))
	if err != nil {
		return jobReply{}, 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobReply{}, resp.StatusCode, err
	}
	var out jobReply
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return out, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	return out, resp.StatusCode, json.Unmarshal(payload, &out)
}

// getJob long-polls one round of GET /jobs/{id}.
func getJob(base, id string) (jobReply, error) {
	resp, err := http.Get(base + "/jobs/" + id + "?wait=1000")
	if err != nil {
		return jobReply{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return jobReply{}, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	var out jobReply
	return out, json.Unmarshal(payload, &out)
}

// fetchTechniques asks the running service for its registered technique
// names (excluding pseudo-techniques like "auto").
func fetchTechniques(base string) ([]string, error) {
	resp, err := http.Get(base + "/techniques")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("techniques: status %d: %s", resp.StatusCode, payload)
	}
	var reply struct {
		Techniques []string `json:"techniques"`
	}
	if err := json.Unmarshal(payload, &reply); err != nil {
		return nil, err
	}
	return reply.Techniques, nil
}

func postReorderTech(base, technique string, body []byte, out *serveReply) error {
	resp, err := http.Post(base+"/reorder?technique="+technique, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	return json.Unmarshal(payload, out)
}

func validatePerm(p []int32, n int32) error {
	if len(p) != int(n) {
		return fmt.Errorf("permutation length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	return nil
}

// twoCommunityMatrix builds the smoke fixture: two 4-cliques joined by a
// single edge, a shape every community technique handles.
func twoCommunityMatrix() *sparse.CSR {
	coo := sparse.NewCOO(8, 8, 64)
	for _, block := range [][2]int32{{0, 4}, {4, 8}} {
		for i := block[0]; i < block[1]; i++ {
			for j := i + 1; j < block[1]; j++ {
				coo.AddSym(i, j, 1)
			}
		}
	}
	coo.AddSym(3, 4, 1)
	return coo.ToCSR()
}
