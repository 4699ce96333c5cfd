// Command perfbench is the repository benchmark: one command that runs a
// seeded workload against the program from outside, checks every output,
// and prints its metrics as one JSON object on the last line of standard
// output. See README.md in this directory for the workloads, the metric
// map and how to run it; run.sh builds it and reorderd from source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// env is what every workload receives: the parsed arguments plus the
// span recorder of a traced run.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	reorderd string     // path of the reorderd binary (serve workloads)
	out      string     // directory for span dumps
	first    setupClock // the first set-up's, from process start
	rec      *recorder
}

// outcome is what a workload measured. e2e, detail and layer are keyed
// by metric name; units come from the catalog.
type outcome struct {
	attempted, failed int64
	// setup holds the CPU seconds of each set-up repetition (this process
	// and, for the serve workloads, the server) at the reference host
	// speed, setupRaw the same unscaled and setupWall their wall time;
	// setup_s is the median of setup.
	setup, setupRaw, setupWall []float64
	e2e                        map[string]float64
	// detail holds the workload's own end-to-end figures (cells_per_s,
	// traffic_x, ...), printed on a line of their own before the result.
	detail map[string]float64
	// layer holds the traced run's per-layer metrics.
	layer map[string]float64
	host  hostRecord
	// failures keeps the first few failure reasons for standard error.
	failures []string
	// selfNs is the traced window's self time per module.
	selfNs map[string]int64
	// err is a measurement that failed (the speed probe), which fails
	// the run without a result.
	err error
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, detail: map[string]float64{}, layer: map[string]float64{},
		host: hostRecord{RefMs: map[string]float64{}}}
}

// setupReps is how many set-ups every run times, the first from process
// start; setup_s is their median. A set-up takes a quarter second to three
// seconds here, and single ones spread by a third on a shared host.
const setupReps = 5

// setupClock measures one set-up from its start, with a speed probe
// running alongside (speed.go).
type setupClock struct {
	wall  time.Time
	cpu   time.Duration
	probe *speedProbe
}

func startSetup() setupClock { return setupClock{time.Now(), cpuTime(0), startProbe()} }

// addSetup records a set-up that began at c, in CPU seconds at the
// reference host speed; server is CPU time a child process spent in it.
func (o *outcome) addSetup(c setupClock, server time.Duration) {
	raw := (cpuTime(0) - c.cpu + server).Seconds()
	ref, err := c.probe.stop()
	if err != nil && o.err == nil {
		o.err = err
	}
	o.setup = append(o.setup, raw*refNominal/sum(ref[:]))
	o.setupRaw = append(o.setupRaw, raw)
	o.setupWall = append(o.setupWall, time.Since(c.wall).Seconds())
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"tables":         runTables,
	"kernels-spmv":   func(e *env) (*outcome, error) { return runKernels(e, "spmv") },
	"kernels-spgemm": func(e *env) (*outcome, error) { return runKernels(e, "spgemm") },
	"serve-hot":      func(e *env) (*outcome, error) { return runServe(e, false) },
	"serve-cold":     func(e *env) (*outcome, error) { return runServe(e, true) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	started := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: tables, kernels-spmv, kernels-spgemm, serve-hot or serve-cold")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	reorderd := fs.String("reorderd", "", "path of the reorderd binary (serve workloads)")
	out := fs.String("out", "", "directory for span dumps of traced runs")
	streamChild := fs.Bool("stream-child", false, "measure STREAM bandwidth and print GB/s (internal)")
	probeChild := fs.Bool("probe-child", false, "time reference slices until standard input closes (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *streamChild {
		return streamMain()
	}
	if *probeChild {
		return probeMain()
	}
	defer stopProbes()
	wf, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		reorderd: *reorderd,
		out:      *out,
		first:    setupClock{wall: started, probe: startProbe()},
	}
	if e.trace {
		e.rec = newRecorder()
	}
	o, err := wf(e)
	if err == nil {
		err = o.err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	o.host.fill()
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", *workload, f)
	}
	if e.trace {
		if err := dumpSpans(e, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return printResult(os.Stdout, e, o)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the host record, the workload's own figures and
// finally the result object, which must stay the last line.
func printResult(w io.Writer, e *env, o *outcome) int {
	o.e2e["setup_s"] = median(o.setup)
	o.detail["setup_wall_s"] = median(o.setupWall)
	o.detail["setup_raw_s"] = median(o.setupRaw)
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	res.Correct = o.failed == 0 && o.attempted > 0
	if e.trace {
		o.layer["host.steal_frac"] = o.host.StealFrac
		o.layer["host.stream_gbs"] = o.host.StreamGBs
		for _, m := range perLayerCatalog() {
			res.Metrics[m.Name] = metricValue{o.layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEndCatalog {
			v, ok := o.e2e[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", e.workload, m.Name)
				return 1
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	o.detail["fail_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.detail["peak_rss_mb"] = o.host.PeakRSSMB
	host, _ := json.Marshal(o.host)
	fmt.Fprintf(w, "host %s\n", host)
	fmt.Fprintf(w, "workload %s %s\n", e.workload, detailJSON(o.detail))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// detailJSON renders the workload's own figures with their units, in
// name order.
func detailJSON(d map[string]float64) string {
	out := make(map[string]metricValue, len(d))
	for k, v := range d {
		out[k] = metricValue{v, detailUnits[k]}
	}
	b, _ := json.Marshal(out)
	return string(b)
}
