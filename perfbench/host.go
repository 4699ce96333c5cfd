package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
)

// streamElems sizes each of STREAM's three float32 arrays: 8 Mi elements,
// 32 MiB per array and 96 MiB in all. That is 48x the 2 MiB L2 this
// benchmark was tuned on but below its 300 MiB L3 (both as sysfs reports
// them), so host.stream_gbs is what an L3-backed stream sustains, an upper
// bound on DRAM bandwidth; the L2/L3 sizes are recorded beside it.
const streamElems = 8 << 20

// hostRecord is printed beside every run's metrics so that a run taken
// during a neighbour's burst reads as one.
type hostRecord struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	L2Bytes        int64   `json:"l2_bytes"`
	L3Bytes        int64   `json:"l3_bytes"`
	StreamGBs      float64 `json:"host.stream_gbs"`
	StreamArrayMiB float64 `json:"stream_array_mib"`
	StealFrac      float64 `json:"host.steal_frac"`
	// RefMs is the median time of each part of the last window's
	// reference slices (speed.go); together they exceed refNominal on a
	// host slower than the reference speed.
	RefMs     map[string]float64 `json:"host.ref_ms"`
	LateP99ms float64            `json:"loadgen.late_p99_ms"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
}

// fill completes the record after the workload ran: static host facts
// and a STREAM measurement in a separate process, so its arrays stay out
// of the benchmark's own peak RSS.
func (h *hostRecord) fill() {
	h.NProc = runtime.NumCPU()
	h.GOMAXPROCS = runtime.GOMAXPROCS(0)
	h.GoVersion = runtime.Version()
	h.L2Bytes, h.L3Bytes = cacheSizes()
	h.StreamArrayMiB = float64(streamElems*4) / (1 << 20)
	if h.StreamGBs > 0 {
		return // kernels-spmv measured it already
	}
	if gbs, err := measureStream(); err == nil {
		h.StreamGBs = gbs
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: stream: %v\n", err)
	}
}

// streamMain is the child side of measureStream.
func streamMain() int {
	r := kernels.MeasureStreamBandwidth(streamElems, 5)
	fmt.Println(strconv.FormatFloat(r.Best(), 'f', 4, 64))
	return 0
}

func measureStream() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-stream-child").Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// cacheSizes reads the L2 and L3 sizes of cpu0 from sysfs (0 when absent).
func cacheSizes() (l2, l3 int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			l2 = n * mult
		case "3":
			l3 = n * mult
		}
	}
	return l2, l3
}

// cpuStat is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal int64
}

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	var s cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guests are already counted in user and nice.
		if i < 8 {
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealSince is the steal share of all CPU time elapsed since start.
func (s cpuStat) stealSince(start cpuStat) float64 {
	if d := s.total - start.total; d > 0 {
		return float64(s.steal-start.steal) / float64(d)
	}
	return 0
}

// window marks the timed window of a run: its wall-clock bounds, the
// host CPU counters at its start, and the CPU time and resident memory of
// the process doing the work inside it.
type window struct {
	start time.Time
	end   time.Time
	stat  cpuStat
	pid   int // the process doing the work; 0 for this one
	cpu0  time.Duration
	cpu   time.Duration
	// rss is the median of VmRSS sampled every rssEvery, in MiB.
	rss     float64
	samples []float64
	stop    chan struct{}
	done    chan struct{}
	// probe times the reference slices; ref holds the median time of
	// each part of a slice once the window is closed.
	probe *speedProbe
	ref   [len(refParts)]float64
}

// rssEvery is the resident-memory sampling period of a window.
const rssEvery = 50 * time.Millisecond

func openWindow(pid int) *window {
	probe := startProbe()
	w := &window{start: time.Now(), stat: readCPUStat(), pid: pid, cpu0: cpuTime(pid),
		stop: make(chan struct{}), done: make(chan struct{}), probe: probe}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			w.samples = append(w.samples, procStatusMB(pid, "VmRSS:"))
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// close ends the window and records its steal share and reference
// slice times; a probe that failed fails the run through o.err.
func (w *window) close(o *outcome) {
	w.end = time.Now()
	w.cpu = cpuTime(w.pid) - w.cpu0
	var err error
	if w.ref, err = w.probe.stop(); err != nil && o.err == nil {
		o.err = err
	}
	close(w.stop)
	<-w.done
	w.rss = median(w.samples)
	o.host.StealFrac = readCPUStat().stealSince(w.stat)
	for i, name := range refParts {
		o.host.RefMs[name] = w.ref[i] / 1e6
	}
}

// msPerOp is cpu per operation in milliseconds, scaled to the reference
// host speed (see speed.go).
func (w *window) msPerOp(cpu time.Duration, ops int64) float64 {
	return ms(int64(cpu)) / float64(ops) * refNominal / sum(w.ref[:])
}

// cpuTime is the user plus system CPU time a process has used: this
// process (pid 0) from getrusage, another from /proc/<pid>/stat in clock
// ticks of 10 ms. Time the hypervisor stole from the guest is not
// charged to the process, which is why the gated metrics are CPU times:
// on the host this was tuned on, steal ranged from 0.1% to 40% between
// runs and moved wall-clock times by up to 60%, CPU times by 10–20%,
// which the reference of speed.go scales out in part.
func cpuTime(pid int) time.Duration {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; the fields after it are fixed.
	_, rest, _ := bytes.Cut(data, []byte(") "))
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// peakRSSMB reads VmHWM of a process from /proc: this one for pid 0.
func peakRSSMB(pid int) float64 { return procStatusMB(pid, "VmHWM:") }

// procStatusMB reads one kB field of /proc/<pid>/status in MiB.
func procStatusMB(pid int, key string) float64 {
	proc := "self"
	if pid != 0 {
		proc = strconv.Itoa(pid)
	}
	f, err := os.Open(filepath.Join("/proc", proc, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
