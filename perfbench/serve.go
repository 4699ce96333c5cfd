package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/advisor"
	"repro/internal/gen"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// The serve workloads drive the real cmd/reorderd binary, started as a
// child process with default flags, over loopback HTTP from one open-loop
// load generator: seeded Poisson arrivals at one fixed rate, at most
// nproc requests in flight on at most nproc connections, each request
// timed from its due time. serve-hot repeats uploads of matrices primed
// in set-up, so every timed request is a cache or job-store hit;
// serve-cold uploads a matrix the server has never seen on every request.
//
// The mix follows cmd/loadgen, the repository's own load generator and
// its only traffic model: binary CSR bodies (the upload format
// docs/OPERATIONS.md recommends), Zipf popularity with its default
// exponent of 1.3, and RABBIT++ as the fixed technique. cmd/loadgen
// submits to /jobs only; no traffic record gives the shares of /reorder
// and technique=auto beside it, so the three request classes get equal
// shares.
//
// MatrixMarket uploads are left out of the timed mix: a MatrixMarket parse
// costs ~30x a binary one on these matrices, so whatever share they were
// given would set the gated CPU per request. Their parse cost is reported per layer, from an
// off-the-clock replay (serve_trace.go).

// hotMatrices are the repeat-upload population, most popular first under
// the Zipf weights: 43–312 K nonzeros across social, communication, k-mer,
// road, web and power-law structure. Meshes and wiki-talk-like are left
// out: RABBIT takes 0.3–0.7 s on the meshes and technique=auto picks
// RCM++ for wiki-talk-like, which takes 1.4 s, so priming would dominate
// set-up.
var hotMatrices = []string{
	"email-like", "star-dense", "kmer-short", "kmer-branchy", "road-dense", "road-eu-like",
	"kmer-v1r-like", "road-usa-like", "web-deep", "wiki-topcats-like", "rmat-skew-mid", "twitter-like",
}

// coldFamilies are cycled through by the cold requests, each upload a
// fresh seed of the family: communication, k-mer, road, giant-hub and
// power-law graphs of 43–255 K nonzeros whose miss path (ordering plus
// quality step) costs 20–110 ms, a continuum the median sits inside.
// Meshes (RABBIT takes 0.3–0.8 s on them) and wiki-talk-like
// (technique=auto picks RCM++, 1.0–1.4 s) are left out: a few such
// requests and the queue behind them would set the median.
var coldFamilies = []string{
	"email-like", "star-dense", "kmer-short", "kmer-branchy", "road-dense",
	"road-eu-like", "mawi-like", "kmer-v1r-like", "road-usa-like", "rmat-skew-mid",
}

const (
	// hotRate is about two fifths of the hit-path capacity of two
	// connections (~210 req/s) on the 2-CPU host this was tuned on; a
	// 12 s window then holds over 1000 requests, enough for a p99.
	hotRate = 85.0
	// coldRate is about a quarter of the miss-path capacity there
	// (~29 req/s), so that queueing stays small beside service time.
	coldRate = 8.0
	// The latency limits goodput counts against.
	hotLimit  = 500 * time.Millisecond
	coldLimit = 3 * time.Second
	// hotZipf is the popularity exponent over hotMatrices, cmd/loadgen's
	// default.
	hotZipf = 1.3
	// fixedTechnique is what the non-auto hot classes request,
	// cmd/loadgen's default.
	fixedTechnique = "RABBIT++"
)

// coldTechniques take turns on the fixed-technique cold requests, so that
// RABBIT++, BOBA and auto each make a third of serve-cold.
var coldTechniques = []string{"RABBIT++", "BOBA"}

type serveMatrix struct {
	name  string
	m     *sparse.CSR
	csrb  []byte // the upload body
	genNs int64
}

// serveInputs generates the matrices and the request schedule of a run.
func serveInputs(seed uint64, cold bool, window time.Duration) ([]*serveMatrix, []request, error) {
	var names []string
	var reqs []request
	if cold {
		n := max(1, int(math.Round(coldRate*window.Seconds())))
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 1
			names = append(names, coldFamilies[i%len(coldFamilies)])
		}
		reqs = schedule(seed, window, counts, requestClasses, coldTechniques)
	} else {
		n := max(1, int(math.Round(hotRate*window.Seconds())))
		reqs = schedule(seed, window, zipfCounts(n, len(hotMatrices), hotZipf), requestClasses, []string{fixedTechnique})
		names = hotMatrices
	}
	stream := "serve-hot"
	if cold {
		stream = "serve-cold"
	}
	mats := make([]*serveMatrix, len(names))
	errs := make([]error, len(names))
	closedLoop(len(names), runtime.NumCPU(), func(i int) {
		e, err := reseeded(names[i], seed, fmt.Sprintf("%s/%d", stream, i))
		if err != nil {
			errs[i] = err
			return
		}
		t0 := time.Now()
		sm := &serveMatrix{name: names[i], m: e.Generate(gen.Small)}
		sm.genNs = since(t0)
		mats[i] = sm
		var b bytes.Buffer
		errs[i] = sparse.WriteBinaryCSR(&b, sm.m)
		sm.csrb = b.Bytes()
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return mats, reqs, nil
}

// server is a running reorderd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	waited chan error
	stderr bytes.Buffer
}

func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no reorderd binary (run through run.sh, or pass -reorderd)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, waited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stderr = &s.stderr
	// Should the benchmark die without stopping it, the server goes too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.waited <- s.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.waited:
			return nil, fmt.Errorf("reorderd exited during start-up: %v: %s", err, s.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("reorderd did not become healthy within 20s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes over ten seconds.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.waited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// served is what one request returned, with its due time, the time the
// generator released it and its completion.
type served struct {
	status   int
	body     []byte
	err      error
	due      time.Time
	released time.Time
	done     time.Time
}

type serveBench struct {
	e      *env
	o      *outcome
	cold   bool
	mats   []*serveMatrix
	reqs   []request
	srv    *server
	client *http.Client
	limit  time.Duration
	// expected caches the in-process permutation per matrix and technique.
	expected map[string]sparse.Permutation
	advised  map[int]string
	// delta holds the /metrics counter deltas over the last window.
	delta map[string]float64
}

func runServe(e *env, cold bool) (*outcome, error) {
	o := newOutcome()
	sb := &serveBench{e: e, o: o, cold: cold, limit: hotLimit, expected: map[string]sparse.Permutation{}, advised: map[int]string{}}
	if cold {
		sb.limit = coldLimit
	}
	workers := runtime.NumCPU()
	sb.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer sb.client.CloseIdleConnections()
	if err := sb.setup(); err != nil {
		return nil, err
	}
	defer func() {
		if sb.srv != nil {
			sb.srv.stop()
		}
	}()
	o.addSetup(e.first, cpuTime(sb.srv.pid()))

	res, w, err := sb.window(false)
	if err != nil {
		return nil, err
	}
	var untraced float64
	if e.trace {
		// The traced half runs the same schedule against a server in the
		// same state: serve-cold reuploads need fresh matrices, so the
		// cold inputs are redrawn from a derived seed.
		sb.verify(res)
		untraced = w.msPerOp(w.cpu, int64(len(res)))
		if cold {
			if sb.mats, sb.reqs, err = serveInputs(derive(e.seed, "traced"), cold, e.seconds); err != nil {
				return nil, err
			}
			sb.expected, sb.advised = map[string]sparse.Permutation{}, map[int]string{}
		}
		if res, w, err = sb.window(true); err != nil {
			return nil, err
		}
	}
	o.host.PeakRSSMB = peakRSSMB(sb.srv.pid())
	sb.srv.stop()
	sb.srv = nil

	good := sb.verify(res)
	var lats, lates []float64
	perClass := map[string][]float64{}
	for i, r := range res {
		l := float64(r.done.Sub(r.due)) / 1e6
		lats = append(lats, l)
		lates = append(lates, float64(r.released.Sub(r.due))/1e6)
		perClass[sb.reqs[i].class] = append(perClass[sb.reqs[i].class], l)
	}
	o.e2e["cpu_ms_per_op"] = w.msPerOp(w.cpu, int64(len(res)))
	o.detail["cpu_ms_per_op_raw"] = ms(int64(w.cpu)) / float64(len(res))
	o.e2e["rss_mb"] = w.rss
	o.detail["goodput_per_s"] = float64(good) / w.seconds()
	o.detail["p50_ms"] = median(lats)
	o.detail["p95_ms"] = quantile(lats, 0.95)
	o.detail["p99_ms"] = quantile(lats, 0.99)
	o.detail["requests"] = float64(len(res))
	o.host.LateP99ms = quantile(lates, 0.99)
	if e.trace {
		o.layer["trace.overhead_frac"] = o.e2e["cpu_ms_per_op"]/untraced - 1
		sb.layers(res, w, perClass)
	}

	// More whole set-ups, each with its own server, for the median.
	for len(o.setup) < setupReps {
		c := startSetup()
		again := &serveBench{e: e, o: newOutcome(), cold: cold, client: sb.client, expected: map[string]sparse.Permutation{}, advised: map[int]string{}}
		if err := again.setup(); err != nil {
			return nil, err
		}
		o.addSetup(c, cpuTime(again.srv.pid()))
		again.srv.stop()
	}
	return o, nil
}

// setup generates the inputs, starts the server and primes it; on error
// no server is left running.
func (sb *serveBench) setup() error {
	var err error
	if sb.mats, sb.reqs, err = serveInputs(sb.e.seed, sb.cold, sb.e.seconds); err != nil {
		return err
	}
	if sb.srv, err = startServer(sb.e.reorderd); err != nil {
		return err
	}
	if err := sb.prime(); err != nil {
		sb.srv.stop()
		sb.srv = nil
		return err
	}
	return nil
}

// prime sends the set-up requests: every hot matrix under every endpoint
// and technique choice, or one warm-up upload per class of a matrix no
// timed request uses.
func (sb *serveBench) prime() error {
	// Each group of priming requests runs in order (a matrix's /jobs and
	// auto uploads then find its RABBIT++ result cached); nproc groups run
	// at once.
	var groups [][]request
	if sb.cold {
		e, err := reseeded(coldFamilies[0], sb.e.seed, "serve-cold/warm-up")
		if err != nil {
			return err
		}
		warm := &serveMatrix{name: e.Name, m: e.Generate(gen.Small)}
		var b bytes.Buffer
		if err := sparse.WriteBinaryCSR(&b, warm.m); err != nil {
			return err
		}
		warm.csrb = b.Bytes()
		sb.mats = append(sb.mats, warm)
		var g []request
		for _, c := range requestClasses {
			t := coldTechniques[0]
			if c == "auto" {
				t = "auto"
			}
			g = append(g, request{matrix: len(sb.mats) - 1, class: c, technique: t})
		}
		groups = append(groups, g)
	} else {
		for i := range sb.mats {
			groups = append(groups, []request{
				{matrix: i, class: "reorder-csrb", technique: fixedTechnique},
				{matrix: i, class: "jobs-csrb", technique: fixedTechnique},
				{matrix: i, class: "auto", technique: "auto"},
			})
		}
	}
	errs := make([]error, len(groups))
	closedLoop(len(groups), runtime.NumCPU(), func(i int) {
		for _, r := range groups[i] {
			if s := sb.do(context.Background(), r); s.err != nil || s.status != http.StatusOK {
				errs[i] = fmt.Errorf("priming %s %s: status %d: %v", r.class, sb.mats[r.matrix].name, s.status, s.err)
				return
			}
		}
	})
	if sb.cold {
		sb.mats = sb.mats[:len(sb.mats)-1]
	}
	return errors.Join(errs...)
}

// window replays the schedule open-loop: a dispatcher releases each
// request at its due time to nproc senders; metrics are scraped around it.
func (sb *serveBench) window(traced bool) ([]served, *window, error) {
	rec := sb.e.rec
	if !traced {
		rec = nil
	}
	before, err := sb.scrape()
	if err != nil {
		return nil, nil, err
	}
	res := make([]served, len(sb.reqs))
	w := openWindow(sb.srv.pid())
	start := w.start.Add(20 * time.Millisecond)
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness is its own.
	due := make(chan int, len(sb.reqs))
	released := make([]time.Time, len(sb.reqs))
	go func() {
		for i, r := range sb.reqs {
			time.Sleep(time.Until(start.Add(r.due)))
			released[i] = time.Now()
			due <- i
		}
		close(due)
	}()
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				// The request waited for a sender from its release until now.
				rec.record("loadgen.wait", int64(i)+1, released[i], time.Now())
				sp := rec.open("serve.request", 0, int64(i)+1)
				s := sb.do(context.Background(), sb.reqs[i])
				sp.close()
				s.due, s.released = start.Add(sb.reqs[i].due), released[i]
				res[i] = s
			}
		}()
	}
	wg.Wait()
	w.close(sb.o)
	last := start
	for _, r := range res {
		if r.done.After(last) {
			last = r.done
		}
	}
	// The window runs from the first due time to the last completion.
	w.start, w.end = start, last
	after, err := sb.scrape()
	if err != nil {
		return nil, nil, err
	}
	sb.delta = deltas(before, after)
	return res, w, nil
}

// do sends one request and, for an accepted job, long-polls it to
// completion. The returned body is the final response.
func (sb *serveBench) do(ctx context.Context, r request) served {
	path := "/reorder"
	if r.class == "jobs-csrb" {
		path = "/jobs"
	}
	u := sb.srv.base + path + "?technique=" + url.QueryEscape(r.technique)
	status, resp, err := sb.post(ctx, u, sparse.BinaryCSRContentType, sb.mats[r.matrix].csrb)
	for err == nil && status == http.StatusAccepted {
		var j struct {
			JobID string `json:"job_id"`
		}
		if err = json.Unmarshal(resp, &j); err != nil {
			break
		}
		status, resp, err = sb.get(ctx, sb.srv.base+"/jobs/"+j.JobID+"?wait=30000")
		if err == nil && status == http.StatusOK {
			var st struct {
				Status string `json:"status"`
			}
			if err = json.Unmarshal(resp, &st); err == nil && (st.Status == "queued" || st.Status == "running") {
				status = http.StatusAccepted
			}
		}
	}
	return served{status: status, body: resp, err: err, done: time.Now()}
}

func (sb *serveBench) post(ctx context.Context, u, ct string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ct)
	return sb.send(req)
}

func (sb *serveBench) get(ctx context.Context, u string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	return sb.send(req)
}

func (sb *serveBench) send(req *http.Request) (int, []byte, error) {
	resp, err := sb.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (sb *serveBench) scrape() (map[string]float64, error) {
	status, body, err := sb.get(context.Background(), sb.srv.base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func deltas(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// verify checks every response of the last window off the clock and
// returns how many were correct and within the latency limit. A response
// is correct when its status is 200, its technique is the requested one
// (for auto, what advisor.Advise picks in-process) and its permutation is
// valid and equal to what the technique computes in-process. The window
// itself fails when the server's hit counters disagree with the workload:
// every serve-hot request must be a cache or job-store hit and no
// serve-cold request may be one.
func (sb *serveBench) verify(res []served) int64 {
	sb.prepareExpected()
	var good int64
	for i, s := range res {
		r := sb.reqs[i]
		sb.o.attempted++
		if err := sb.check(r, s); err != nil {
			sb.o.fail("request %d (%s %s on %s): %v", i, r.class, r.technique, sb.mats[r.matrix].name, err)
			continue
		}
		if s.done.Sub(s.due) <= sb.limit {
			good++
		}
	}
	want := float64(len(res))
	if sb.cold {
		want = 0
	}
	if hits := sb.hits(); hits != want {
		sb.o.fail("%v cache and job-store hits over %d requests, want %v", hits, len(res), want)
	}
	return good
}

// hits is the number of cache and job-store hits over the last window,
// from the server's counters.
func (sb *serveBench) hits() float64 {
	return sb.delta["reorderd_cache_hits_total"] + sb.delta["reorderd_job_store_hits_total"]
}

type permResponse struct {
	Technique   string  `json:"technique"`
	Permutation []int32 `json:"permutation"`
}

func (sb *serveBench) check(r request, s served) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	var got permResponse
	if strings.HasPrefix(r.class, "jobs") {
		var j struct {
			Status string        `json:"status"`
			Result *permResponse `json:"result"`
		}
		if err := json.Unmarshal(s.body, &j); err != nil {
			return err
		}
		if j.Status != "done" || j.Result == nil {
			return fmt.Errorf("job %s without result", j.Status)
		}
		got = *j.Result
	} else if err := json.Unmarshal(s.body, &got); err != nil {
		return err
	}
	tech := r.technique
	if tech == "auto" {
		tech = sb.advise(r.matrix)
	}
	if got.Technique != tech {
		return fmt.Errorf("technique %q, want %q", got.Technique, tech)
	}
	p := sparse.Permutation(got.Permutation)
	if err := p.Validate(); err != nil {
		return err
	}
	want, err := sb.expect(r.matrix, tech)
	if err != nil {
		return err
	}
	if len(p) != len(want) {
		return fmt.Errorf("permutation of %d, want %d", len(p), len(want))
	}
	for i := range p {
		if p[i] != want[i] {
			return fmt.Errorf("permutation differs from the in-process %s ordering at %d", tech, i)
		}
	}
	return nil
}

// prepareExpected computes on nproc goroutines the in-process results the
// responses are checked against: the advisor's pick for every auto
// request's matrix, then every (matrix, technique) permutation.
func (sb *serveBench) prepareExpected() {
	var mu sync.Mutex
	var autos []int
	for _, r := range sb.reqs {
		if _, ok := sb.advised[r.matrix]; r.technique == "auto" && !ok {
			sb.advised[r.matrix] = ""
			autos = append(autos, r.matrix)
		}
	}
	closedLoop(len(autos), runtime.NumCPU(), func(i int) {
		t := advisor.Advise(sb.mats[autos[i]].m).Best()
		mu.Lock()
		sb.advised[autos[i]] = t
		mu.Unlock()
	})
	type cell struct {
		m    int
		tech string
	}
	var cells []cell
	seen := map[cell]bool{}
	for _, r := range sb.reqs {
		c := cell{r.matrix, r.technique}
		if c.tech == "auto" {
			c.tech = sb.advised[r.matrix]
		}
		if _, ok := sb.expected[strconv.Itoa(c.m)+"|"+c.tech]; !ok && !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	closedLoop(len(cells), runtime.NumCPU(), func(i int) {
		c := cells[i]
		var p sparse.Permutation
		if t, err := reorder.ByName(c.tech); err == nil {
			p = t.Order(sb.mats[c.m].m)
		}
		mu.Lock()
		sb.expected[strconv.Itoa(c.m)+"|"+c.tech] = p
		mu.Unlock()
	})
}

func (sb *serveBench) advise(i int) string {
	if t, ok := sb.advised[i]; ok {
		return t
	}
	t := advisor.Advise(sb.mats[i].m).Best()
	sb.advised[i] = t
	return t
}

func (sb *serveBench) expect(i int, tech string) (sparse.Permutation, error) {
	key := strconv.Itoa(i) + "|" + tech
	if p, ok := sb.expected[key]; ok {
		return p, nil
	}
	t, err := reorder.ByName(tech)
	if err != nil {
		return nil, err
	}
	p := t.Order(sb.mats[i].m)
	sb.expected[key] = p
	return p, nil
}
