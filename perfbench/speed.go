package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host speed reference.
//
// On a shared host the CPU time of a fixed piece of work drifts with what
// the neighbours do to the cores and caches the guest's vCPUs share. On
// the host this benchmark was tuned on, one tables pass took 9.9–13.8 s of
// CPU within a single run, and whole runs moved by a fifth between host
// phases lasting minutes, which no median inside a run removes. So while a
// window is open, a child process times one slice of a fixed reference
// computation every refEvery on an OS thread of its own, and the gated
// cpu_ms_per_op is the window's CPU time per operation scaled by
// refNominal over the window's median slice: CPU time at the reference
// host speed. The raw figure is printed beside it.
//
// The reference is this file's code, never the program's, so a change to
// the program moves only the numerator; running it in a child keeps its
// memory and CPU time out of the benchmark's own figures. A slice is
// 30000 random reads from a table four times the 2 MiB L2, then 100000
// rounds of register arithmetic. Over 3–7 s stretches of one run each, the
// log standard deviation of CPU per operation fell from 0.094 to 0.048 on
// tables and from 0.072 to 0.018 on kernels-spgemm once scaled, and moved
// little on kernels-spmv (0.055 to 0.047) and serve-hot (0.024 to 0.027).
// Adding a sequential 4 MiB read to the slice tracked tables no better.

const (
	refTableWords = 2 << 20 // 8 MiB table of uint32
	refReads      = 30000
	refRounds     = 100000
	refEvery      = 40 * time.Millisecond
	// refNominal is the slice time, in nanoseconds, that the scaled
	// figures are expressed at: about the median slice of a quiet phase of
	// the tuning host, so scaled and raw figures read alike there.
	refNominal = 0.65e6
)

// refParts names the timed parts of a reference slice, as the host
// record reports their medians.
var refParts = [2]string{"random", "arith"}

// refSink receives the slices' results, so their loops stay live.
var refSink uint64

// probeMain is the child side of startProbe: it times one reference
// slice every refEvery on one OS thread and prints the thread CPU time of
// each part in nanoseconds, a line per slice, until its standard input
// closes.
func probeMain() int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	table := make([]uint32, refTableWords)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(eof)
	}()
	out := bufio.NewWriter(os.Stdout)
	t := time.NewTicker(refEvery)
	defer t.Stop()
	x := uint64(0x9E3779B97F4A7C15)
	for {
		var acc uint64
		c0 := threadCPU()
		for i := 0; i < refReads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += uint64(table[(x>>20)%refTableWords])
		}
		c1 := threadCPU()
		for i := 0; i < refRounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0x2545F4914F6CDD1D
		}
		c2 := threadCPU()
		refSink += acc
		fmt.Fprintf(out, "%d %d\n", c1-c0, c2-c1)
		if out.Flush() != nil {
			return 1
		}
		select {
		case <-eof:
			return 0
		case <-t.C:
		}
	}
}

// speedProbe is a running probe child and the slice times it reported.
type speedProbe struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	samples [len(refParts)][]float64
	read    chan struct{} // closed when the child's output ends
	once    sync.Once
	// med and err are stop's results.
	med [len(refParts)]float64
	err error
}

var (
	probesMu sync.Mutex
	probes   = map[*speedProbe]bool{}
)

// startProbe starts a probe child. A probe that fails to start reports
// its error from stop.
func startProbe() *speedProbe {
	p := &speedProbe{read: make(chan struct{})}
	if err := p.start(); err != nil {
		p.err = fmt.Errorf("speed probe: %w", err)
		close(p.read)
		return p
	}
	probesMu.Lock()
	probes[p] = true
	probesMu.Unlock()
	return p
}

func (p *speedProbe) start() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-probe-child")
	cmd.Stderr = os.Stderr
	if p.stdin, err = cmd.StdinPipe(); err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd = cmd
	go func() {
		defer close(p.read)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			for i := 0; i < len(f) && i < len(p.samples); i++ {
				v, _ := strconv.ParseFloat(f[i], 64)
				p.samples[i] = append(p.samples[i], v)
			}
		}
	}()
	return nil
}

// stop ends the child, waits for it, and returns the median time of each
// part of a slice in nanoseconds.
func (p *speedProbe) stop() ([len(refParts)]float64, error) {
	p.once.Do(func() {
		if p.cmd == nil {
			return
		}
		p.stdin.Close()
		<-p.read
		if err := p.cmd.Wait(); err != nil {
			p.err = fmt.Errorf("speed probe: %w", err)
		}
		probesMu.Lock()
		delete(probes, p)
		probesMu.Unlock()
		for i := range p.med {
			if len(p.samples[i]) == 0 && p.err == nil {
				p.err = fmt.Errorf("speed probe: no slices timed")
			}
			p.med[i] = median(p.samples[i])
		}
	})
	return p.med, p.err
}

// stopProbes stops any probe a failed workload left running.
func stopProbes() {
	probesMu.Lock()
	left := make([]*speedProbe, 0, len(probes))
	for p := range probes {
		left = append(left, p)
	}
	probesMu.Unlock()
	for _, p := range left {
		p.stop()
	}
}

// threadCPU is the CPU time of the calling OS thread, from
// CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) will not do: it
// leaves out the time since the thread's last scheduler tick, which is
// most of a slice.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
