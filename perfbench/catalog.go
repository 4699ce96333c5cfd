package main

import (
	"strings"

	"repro/internal/advisor"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEndCatalog is what every untraced run reports, on every workload;
// BENCHMARK.json lists the same names with their bounds. Each is
// measured on every workload and none can read 0:
//   - setup_s: CPU seconds of one set-up, the server's included, at the
//     reference host speed (speed.go), median of the run's set-up
//     repetitions (the first from process start);
//   - cpu_ms_per_op: CPU time the process doing the work spent per
//     operation over the timed window — per scheduler unit (tables), per
//     kernel call (kernels-spmv, kernels-spgemm), per request in reorderd
//     (serve) — scaled to the reference host speed (speed.go);
//   - rss_mb: median resident memory (VmRSS, sampled every 50 ms) of the
//     process doing the work over the timed window. Its peak (VmHWM) is
//     printed beside it: on the serve workloads the peak depends on which
//     large requests happen to overlap a garbage collection, and spread
//     0.2–0.3 between runs.
//
// They are CPU times because steal on a shared host moves wall-clock
// times by far more than any bound could absorb (see cpuTime); the
// wall-clock figures, and the unscaled CPU time, are printed beside them
// on the workload line.
var endToEndCatalog = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
}

// detailUnits are the units of each workload's own end-to-end figures,
// printed on the "workload" line of every untraced run.
var detailUnits = map[string]string{
	"setup_wall_s":       "s",
	"cpu_ms_per_op_raw":  "ms",
	"setup_raw_s":        "s",
	"cells_per_s":        "1/s",
	"traffic_x":          "ratio",
	"spmv_gflop_per_s":   "GFLOP/s",
	"spgemm_mflop_per_s": "MFLOP/s",
	"goodput_per_s":      "1/s",
	"p50_ms":             "ms",
	"p95_ms":             "ms",
	"p99_ms":             "ms",
	"fail_frac":          "ratio",
	"peak_rss_mb":        "MiB",
	"requests":           "count",
}

// orderedTechniques are the techniques some workload orders: Figure 2's
// six, the Table II variants, the advisor candidates, and the kernels and
// serve-cold sets.
var orderedTechniques = []string{
	"RANDOM", "ORIGINAL", "DEGSORT", "DBG", "GORDER", "RABBIT",
	"RABBIT+HUBSORT", "RABBIT+HUBGROUP", "RABBIT+INS", "RABBIT+HUBSORT+INS", "RABBIT+HUBGROUP+INS",
	"RABBIT++", "HUBGROUP", "BOBA", "RCM++",
}

// spmvTechniques are the orderings kernels-spmv runs SpMV under.
var spmvTechniques = []string{"RANDOM", "ORIGINAL", "RABBIT++", "BOBA"}

// spgemmModes are the SpGEMM schedules kernels-spgemm compares.
var spgemmModes = []string{"dense", "merge", "cluster"}

// requestClasses split the serve workloads' requests by endpoint and
// technique choice, all with binary CSR bodies: /reorder and /jobs with a
// fixed technique, and /reorder with technique=auto. Each is a third of
// both serve workloads' mix (see serve.go).
var requestClasses = []string{"reorder-csrb", "jobs-csrb", "auto"}

// modules are the program's packages a span can be charged to, plus the
// benchmark's own load generator.
var modules = []string{
	"experiments", "gen", "core", "reorder", "sparse", "trace", "cachesim",
	"multidev", "advisor", "quality", "kernels", "serve", "loadgen",
}

// tag spells a technique for a metric name: '+' becomes 'p'.
func tag(technique string) string { return strings.ReplaceAll(technique, "+", "p") }

// perLayerCatalog lists every per-layer metric a traced run reports, on
// every workload; a layer a workload does not run reads 0 there.
func perLayerCatalog() []metricDef {
	defs := []metricDef{
		{"experiments.units", "count"},
		{"experiments.overhead_ms", "ms"},
		{"experiments.render_ms", "ms"},
		{"gen.ns_per_nnz", "ns"},
		{"core.detect_ns_per_nnz", "ns"},
	}
	for _, t := range orderedTechniques {
		defs = append(defs, metricDef{"reorder.ns_per_nnz." + tag(t), "ns"})
	}
	defs = append(defs,
		metricDef{"sparse.permute_ns_per_nnz", "ns"},
		metricDef{"sparse.parse_ms.csrb", "ms"},
		metricDef{"sparse.parse_ms.mm", "ms"},
		metricDef{"sparse.digest_ms", "ms"},
	)
	for _, k := range []string{"spmv", "spgemm", "spgemm-cluster", "owned"} {
		defs = append(defs, metricDef{"trace.ns_per_access." + k, "ns"})
	}
	defs = append(defs,
		metricDef{"trace.accesses", "count"},
		metricDef{"cachesim.ns_per_access", "ns"},
		metricDef{"cachesim.misses", "count"},
		metricDef{"multidev.ns_per_access", "ns"},
		metricDef{"advisor.features_ns_per_nnz", "ns"},
		metricDef{"quality.ms", "ms"},
	)
	for _, t := range spmvTechniques {
		defs = append(defs, metricDef{"kernels.spmv_ns_per_nnz." + tag(t), "ns"})
	}
	defs = append(defs,
		metricDef{"kernels.spmv_bw_frac", "ratio"},
		metricDef{"kernels.host_speedup_x", "ratio"},
	)
	for _, m := range spgemmModes {
		defs = append(defs, metricDef{"kernels.spgemm_ns_per_flop." + m, "ns"})
	}
	for _, m := range spgemmModes {
		defs = append(defs, metricDef{"kernels.spgemm_allocs_per_call." + m, "count"})
	}
	for _, c := range requestClasses {
		defs = append(defs, metricDef{"serve.p50_ms." + c, "ms"})
	}
	defs = append(defs, metricDef{"serve.hit_ratio", "ratio"})
	// The techniques technique=auto can resolve to, each with its own job
	// histogram.
	for _, t := range advisor.Candidates() {
		defs = append(defs, metricDef{"serve.job_ms." + tag(t), "ms"})
	}
	defs = append(defs, metricDef{"serve.encode_ms", "ms"})
	for _, c := range requestClasses {
		defs = append(defs, metricDef{"serve.residual_ms." + c, "ms"})
	}
	defs = append(defs, metricDef{"serve.shed", "count"})
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".share", "ratio"})
	}
	defs = append(defs,
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"host.steal_frac", "ratio"},
		metricDef{"host.stream_gbs", "GB/s"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}
