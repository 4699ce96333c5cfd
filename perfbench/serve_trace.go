package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// replayed is the off-the-clock re-execution of one request's server-side
// stages, as the service runs them for its class.
type replayed struct {
	stages           []stage
	parse, digest    int64
	features, detect int64
	order, quality   int64
	encode           int64
	tech             string
}

func (r replayed) total() int64 {
	var t int64
	for _, s := range r.stages {
		t += s.ns
	}
	return t
}

// encodedResponse mirrors the service's /reorder response so the replay
// encodes what the server encodes.
type encodedResponse struct {
	Technique   string             `json:"technique"`
	Rows        int32              `json:"rows"`
	Cols        int32              `json:"cols"`
	NNZ         int                `json:"nnz"`
	Digest      string             `json:"digest"`
	Cached      bool               `json:"cached"`
	ElapsedMS   float64            `json:"elapsed_ms"`
	ComputeMS   float64            `json:"compute_ms"`
	Permutation sparse.Permutation `json:"permutation"`
	Quality     map[string]float64 `json:"quality,omitempty"`
}

// hashes is how many times the service digests the matrix on the path a
// request takes: once for the cache or job key, once more for the
// advisor's feature cache on technique=auto, and once more inside a job
// that runs (a miss).
func hashes(class string, cold bool) int {
	n := 1
	if class == "auto" {
		n++
	}
	if cold {
		n++
	}
	return n
}

// replay re-executes the stages of one request: parse, digest, and on a
// miss advisor features (auto), the technique's OrderCtx and the quality
// step (core.RabbitCtx + core.Analyze), then the JSON encode.
func (sb *serveBench) replay(r request) replayed {
	ctx := context.Background()
	sm := sb.mats[r.matrix]
	var out replayed
	t0 := time.Now()
	m, err := sparse.ReadBinaryCSRLimited(bytes.NewReader(sm.csrb), sparse.MMLimits{})
	if err != nil {
		m = sm.m
	}
	out.parse = since(t0)
	t0 = time.Now()
	var digest string
	for i := 0; i < hashes(r.class, sb.cold); i++ {
		digest = m.Digest()
	}
	out.digest = since(t0)
	out.tech = r.technique
	if r.technique == "auto" {
		out.tech = sb.advise(r.matrix)
	}
	perm, _ := sb.expect(r.matrix, out.tech)
	var quality map[string]float64
	if sb.cold {
		if r.technique == "auto" {
			t0 = time.Now()
			advisor.FeaturesCtx(ctx, m)
			out.features = since(t0)
		}
		if t, err := reorder.ByNameCtx(out.tech); err == nil {
			t0 = time.Now()
			t.OrderCtx(ctx, m)
			out.order = since(t0)
		}
		t0 = time.Now()
		rr, err := core.RabbitCtx(ctx, m)
		out.detect = since(t0)
		if err == nil {
			cs := core.Analyze(m, rr.Communities)
			quality = map[string]float64{"insularity": cs.Insularity, "modularity": cs.Modularity,
				"degree_skew": cs.Skew, "communities": float64(cs.Communities)}
		}
		out.quality = since(t0)
	}
	t0 = time.Now()
	json.Marshal(encodedResponse{Technique: out.tech, Rows: m.NumRows, Cols: m.NumCols, NNZ: m.NNZ(),
		Digest: digest, Cached: !sb.cold, Permutation: perm, Quality: quality})
	out.encode = since(t0)
	out.stages = []stage{{"sparse.parse", out.parse}, {"sparse.digest", out.digest}}
	if sb.cold {
		out.stages = append(out.stages, stage{"advisor.features", out.features},
			stage{"reorder.order", out.order}, stage{"quality.step", out.quality})
	}
	out.stages = append(out.stages, stage{"serve.encode", out.encode})
	return out
}

// mmParseMs is the time ReadMatrixMarketLimited takes on the MatrixMarket
// encoding of m, in ms.
func mmParseMs(m *sparse.CSR) float64 {
	var b bytes.Buffer
	if err := sparse.WriteMatrixMarket(&b, m); err != nil {
		return 0
	}
	t0 := time.Now()
	sparse.ReadMatrixMarketLimited(bytes.NewReader(b.Bytes()), sparse.MMLimits{})
	return ms(since(t0))
}

// layers splits the traced window's requests by replay and reads the
// server's counters into the per-layer metrics.
func (sb *serveBench) layers(res []served, w *window, perClass map[string][]float64) {
	o, rec := sb.o, sb.e.rec
	cache := map[string]replayed{}
	reps := make([]replayed, len(sb.reqs))
	for i, r := range sb.reqs {
		key := ""
		if !sb.cold {
			key = r.class + "|" + sb.mats[r.matrix].name
		}
		rp, ok := cache[key]
		if !ok || key == "" {
			rp = sb.replay(r)
			if key != "" {
				cache[key] = rp
			}
		}
		reps[i] = rp
	}
	for _, s := range rec.closed("serve.request") {
		rec.replay(s, reps[s.Op-1].stages)
	}

	// MatrixMarket uploads are not in the timed mix, so sparse.parse_ms.mm
	// is what parsing each request's matrix from MatrixMarket would cost,
	// timed off the clock once per matrix family.
	mmParse := map[string]float64{}
	var parseCSRB, parseMM []float64
	var digestNs, encodeNs, qualityNs, featNs, featNNZ, detectNs, detectNNZ int64
	orderNs, orderNNZ := map[string]int64{}, map[string]int64{}
	totals := map[string][]float64{}
	for i, r := range sb.reqs {
		rp := reps[i]
		sm := sb.mats[r.matrix]
		nnz := int64(sm.m.NNZ())
		parseCSRB = append(parseCSRB, ms(rp.parse))
		if _, ok := mmParse[sm.name]; !ok {
			mmParse[sm.name] = mmParseMs(sm.m)
		}
		parseMM = append(parseMM, mmParse[sm.name])
		digestNs += rp.digest
		encodeNs += rp.encode
		qualityNs += rp.quality
		if rp.features > 0 {
			featNs += rp.features
			featNNZ += nnz
		}
		if sb.cold {
			orderNs[rp.tech] += rp.order
			orderNNZ[rp.tech] += nnz
			detectNs += rp.detect
			detectNNZ += nnz
		}
		totals[r.class] = append(totals[r.class], ms(rp.total()))
	}
	n := float64(len(sb.reqs))
	o.layer["sparse.parse_ms.csrb"] = median(parseCSRB)
	o.layer["sparse.parse_ms.mm"] = median(parseMM)
	o.layer["sparse.digest_ms"] = ms(digestNs) / n
	o.layer["serve.encode_ms"] = ms(encodeNs) / n
	o.layer["advisor.features_ns_per_nnz"] = ratio(featNs, featNNZ)
	if sb.cold {
		o.layer["quality.ms"] = ms(qualityNs) / n
		o.layer["core.detect_ns_per_nnz"] = ratio(detectNs, detectNNZ)
		for t, ns := range orderNs {
			o.layer["reorder.ns_per_nnz."+tag(t)] = ratio(ns, orderNNZ[t])
		}
	}
	for _, c := range requestClasses {
		o.layer["serve.p50_ms."+c] = median(perClass[c])
		o.layer["serve.residual_ms."+c] = median(perClass[c]) - median(totals[c])
	}
	d := sb.delta
	o.layer["serve.hit_ratio"] = sb.hits() / n
	o.layer["serve.shed"] = d["reorderd_shed_queue_total"] + d["reorderd_shed_size_total"]
	for _, t := range advisor.Candidates() {
		label := `{technique="` + t + `"}`
		if jobs := d["reorderd_jobs_total"+label]; jobs > 0 {
			o.layer["serve.job_ms."+tag(t)] = d["reorderd_job_seconds_sum"+label] / jobs * 1e3
		}
	}
	o.layer["loadgen.late_p99_ms"] = o.host.LateP99ms
	var genNs, genNNZ int64
	for _, sm := range sb.mats {
		genNs += sm.genNs
		genNNZ += int64(sm.m.NNZ())
	}
	o.layer["gen.ns_per_nnz"] = ratio(genNs, genNNZ)
	shares(sb.e, o, w.seconds())
}
