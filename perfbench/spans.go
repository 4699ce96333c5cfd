package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a module, recorded by the benchmark's own
// code around the call. Name is "<module>.<call>"; Op identifies the
// operation (unit, kernel call or request) the span belongs to. A replay
// span holds the duration of an off-the-clock re-execution of one stage
// of its parent, placed inside the parent's interval so that it splits
// the parent's time among modules; its position is not a measurement.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs call through it at no cost.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// openSpan is a span whose call is in progress.
type openSpan struct {
	r *recorder
	s span
}

// open starts a span; close records it. Both are no-ops on a nil recorder.
func (r *recorder) open(name string, parent, op int64) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Op: op, Name: name, Start: r.now()}}
}

func (o *openSpan) close() {
	if o == nil {
		return
	}
	o.s.End = o.r.now()
	o.r.add(o.s)
}

// record adds a span that ran from start to end; a no-op on a nil
// recorder.
func (r *recorder) record(name string, op int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(span{ID: r.ids.Add(1), Op: op, Name: name, Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))})
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// stage is one replayed stage of an operation: its span name and the
// duration the off-the-clock re-execution took.
type stage struct {
	name string
	ns   int64
}

// replay places the stages inside the parent span back to back from its
// start, truncating at its end, so the parent's time is split among the
// stages' modules and the remainder stays the parent's own.
func (r *recorder) replay(parent span, stages []stage) {
	if r == nil {
		return
	}
	at := parent.Start
	for _, st := range stages {
		end := min(at+max(st.ns, 0), parent.End)
		r.add(span{ID: r.ids.Add(1), Parent: parent.ID, Op: parent.Op, Name: st.name, Start: at, End: end, Replay: true})
		at = end
	}
}

// closed returns the recorded spans, replays aside, whose names have the
// prefix. Untraced windows record nothing, so these are the traced
// window's.
func (r *recorder) closed(prefix string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) && !s.Replay {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each module's self time in ns over the spans of
// operations (root spans with a nonzero op id; set-up spans carry op 0):
// a span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]int64 {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := map[int64][]span{}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	isOp := func(s span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.Op != 0
	}
	out := map[string]int64{}
	for _, s := range spans {
		if isOp(s) {
			out[s.module()] += (s.End - s.Start) - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// shares sets <module>.share for every module: its self time over the
// traced operations divided by the traced window's length. Concurrent
// workers can make the shares sum past 1.
func shares(e *env, o *outcome, windowSec float64) {
	self := e.rec.selfTimes()
	for _, m := range modules {
		o.layer[m+".share"] = float64(self[m]) / 1e9 / windowSec
	}
	o.selfNs = self
}

// dumpSpans writes every span as one JSON line, followed by the self-time
// table, under the output directory.
func dumpSpans(e *env, o *outcome) error {
	if e.out == "" {
		return nil
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	e.rec.mu.Lock()
	for _, s := range e.rec.spans {
		b, _ := json.Marshal(s)
		w.Write(b)
		w.WriteByte('\n')
	}
	e.rec.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	fmt.Fprintf(os.Stderr, "%-12s %12s %8s\n", "module", "self_ms", "share")
	for _, m := range modules {
		if ns := o.selfNs[m]; ns > 0 {
			fmt.Fprintf(os.Stderr, "%-12s %12.1f %8.4f\n", m, ms(ns), o.layer[m+".share"])
		}
	}
	return nil
}
