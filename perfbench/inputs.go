package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
)

// Every input a run feeds the program derives from the one -seed
// argument through derive, one independent stream per purpose, so the
// same seed always produces the same inputs and the program receives
// nothing but them.

// derive returns the seed of the named input stream.
func derive(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := seed ^ h.Sum64()
	// splitmix64 finalizer: nearby seeds give unrelated streams.
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func rngFor(seed uint64, stream string) *gen.RNG { return gen.NewRNG(derive(seed, stream)) }

// reseeded returns the corpus entry with its generator seed replaced by
// one derived from the run seed: the same structural family and size,
// different nonzeros.
func reseeded(name string, seed uint64, stream string) (gen.Entry, error) {
	e, err := gen.ByName(name)
	if err != nil {
		return gen.Entry{}, err
	}
	e.Seed = derive(seed, stream+"/"+name)
	return e, nil
}

// request is one scheduled serve request.
type request struct {
	due       time.Duration // offset from the window start
	matrix    int           // index into the workload's matrices
	class     string        // one of requestClasses
	technique string        // technique query value
}

// zipfCounts splits n requests over m matrices in proportion to the Zipf
// weights 1/(k+1)^s, rounding by largest remainders.
func zipfCounts(n, m int, s float64) []int {
	w := make([]float64, m)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, m)
	rem := make([]int, m)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		rem[k] = k
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := float64(n)*w[rem[a]]/total - float64(counts[rem[a]])
		fb := float64(n)*w[rem[b]]/total - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// schedule builds the requests of one window. Which (matrix, class,
// technique) combinations occur, and how often, does not depend on the
// seed: matrix k is requested counts[k] times, the classes repeat the
// pattern over the requests in matrix order (rotating one slot per
// period, so every matrix sees every class), and the fixed-technique
// classes take techs in turn. The seed shuffles which request is which
// and draws the arrival times: sorted uniform offsets over the window,
// the arrival times of a Poisson process conditioned on their number.
// Fixing the combination counts keeps a seed's draw from moving the
// latency mix; the order and timing stay random.
func schedule(seed uint64, window time.Duration, counts []int, pattern []string, techs []string) []request {
	var reqs []request
	used := map[string]int{}
	j := 0
	for m, c := range counts {
		for k := 0; k < c; k++ {
			cls := pattern[(j+j/len(pattern))%len(pattern)]
			r := request{matrix: m, class: cls, technique: "auto"}
			if cls != "auto" {
				r.technique = techs[used[cls]%len(techs)]
				used[cls]++
			}
			reqs = append(reqs, r)
			j++
		}
	}
	shuffle(rngFor(seed, "serve/order"), reqs)
	arr := rngFor(seed, "serve/arrivals")
	dues := make([]float64, len(reqs))
	for i := range dues {
		dues[i] = arr.Float64() * window.Seconds()
	}
	sort.Float64s(dues)
	for i := range reqs {
		reqs[i].due = time.Duration(dues[i] * float64(time.Second))
	}
	return reqs
}

// shuffle permutes xs in place with a seeded Fisher-Yates pass.
func shuffle[T any](r *gen.RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(int32(i + 1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// digester accumulates a SHA-256 over an input schedule so tests can
// assert that a seed fixes it byte for byte.
type digester struct{ h []byte }

func (d *digester) add(vals ...any) {
	h := sha256.New()
	h.Write(d.h)
	for _, v := range vals {
		switch x := v.(type) {
		case string:
			h.Write([]byte(x))
			h.Write([]byte{0})
		case int:
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		case time.Duration:
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		case []byte:
			h.Write(x)
		default:
			panic("digester: unsupported type")
		}
	}
	d.h = h.Sum(nil)
}

func (d *digester) hex() string { return hex.EncodeToString(d.h) }

// inputDigest is a SHA-256 over every input the workload feeds the
// program for the seed: the unit order (tables), the matrices, vectors
// and call order (kernels), or the matrices, bodies and request schedule
// (serve).
func inputDigest(workload string, seed uint64, window time.Duration) (string, error) {
	var d digester
	e := &env{workload: workload, seed: seed, seconds: window}
	switch workload {
	case "tables":
		tb := newTablesBench(e, newOutcome())
		r, err := tb.prepare()
		if err != nil {
			return "", err
		}
		if err := tb.plan(r); err != nil {
			return "", err
		}
		for _, st := range tb.stages {
			for _, u := range st {
				d.add(unitKey(u))
			}
		}
	case "kernels-spmv", "kernels-spgemm":
		kb := newKernelsBench(e, newOutcome(), strings.TrimPrefix(workload, "kernels-"))
		if err := kb.setup(); err != nil {
			return "", err
		}
		for _, c := range kb.spmv {
			d.add(c.matrix, c.tech, c.a.Digest(), float32Bytes(c.x))
		}
		for _, c := range kb.spgemm {
			d.add(c.matrix, c.tech, c.mode, c.a.Digest())
		}
		for _, c := range kb.calls {
			d.add(c.String())
		}
	case "serve-hot", "serve-cold":
		mats, reqs, err := serveInputs(seed, workload == "serve-cold", window)
		if err != nil {
			return "", err
		}
		for _, m := range mats {
			d.add(m.name, m.m.Digest(), m.csrb)
		}
		for _, r := range reqs {
			d.add(r.due, r.matrix, r.class, r.technique)
		}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	return d.hex(), nil
}

func float32Bytes(xs []float32) []byte {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}
