package reorder

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// BenchmarkReorder times the parallel tier next to its sequential
// ancestors on a planted-partition graph, at workers=1 and workers=NumCPU,
// reporting ns/nnz (the amortization currency of the paper's Figure 9: a
// reordering pays off once kernel savings exceed ns/nnz × sweeps).
// scripts/bench.sh parses these rows into BENCH_reorder.json. On a
// single-CPU host both worker counts coincide and the JSON records
// host_logical_cpus so readers know wall-clock speedup was out of reach.
func BenchmarkReorder(b *testing.B) {
	m := gen.PlantedPartition{Nodes: 16384, Communities: 128, AvgDegree: 16, Mu: 0.2}.Generate(1)
	nnz := float64(m.NNZ())
	techs := []Technique{Rabbit{}, RCM{}, Boba{}, RCMPP{}, RabbitShard{}}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, tech := range techs {
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/w=%d", tech.Name(), w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := OrderWith(context.Background(), WithContext(tech), m, Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(nnz*float64(b.N)), "ns/nnz")
			})
		}
	}
}
