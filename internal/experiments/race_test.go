package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/reorder"
)

// TestRunnerConcurrentAccess drives every kind of the Runner's memo from
// many goroutines at once: concurrent Matrix lookups of the same name,
// Perm computations for several techniques, and LRU, Belady and K=4
// multi-device (rowblock and community) simulations, with two callers per
// technique on the same keys. Under -race this exercises the memo's
// per-key sync.Once and the once-guarded RABBIT result; afterwards every
// unit must have executed exactly once.
func TestRunnerConcurrentAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cache simulations; skipped in -short")
	}
	r := testRunner(t, "er-deg16")
	techs := []reorder.Technique{
		reorder.Original{},
		reorder.DegSort{},
		reorder.Rabbit{},
		reorder.RabbitPP{},
	}

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			md, err := r.Matrix("er-deg16")
			if err != nil {
				errs[c] = err
				return
			}
			tech := techs[c%len(techs)]
			p := r.Perm(md, tech)
			if len(p) != int(md.M.NumRows) {
				errs[c] = fmt.Errorf("permutation has %d entries for %d rows", len(p), md.M.NumRows)
				return
			}
			_ = r.NormTraffic(md, tech, SpMV)
			_ = r.SimBelady(md, tech, SpMV)
			for _, part := range []string{PartRowBlock, PartCommunity} {
				if s := r.SimMultiDev(md, tech, SpMV, 4, part); len(s.Devices) != 4 {
					errs[c] = fmt.Errorf("%s K=4 %s: %d devices", tech.Name(), part, len(s.Devices))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}

	var belady, mdev int
	for key, n := range r.UnitCounts() {
		if n != 1 {
			t.Errorf("unit %s executed %d times, want exactly 1", key, n)
		}
		switch {
		case strings.HasPrefix(key, "belady|"):
			belady++
		case strings.HasPrefix(key, "mdev|"):
			mdev++
		}
	}
	if belady != len(techs) || mdev != 2*len(techs) {
		t.Errorf("recorded %d belady and %d mdev units, want %d and %d", belady, mdev, len(techs), 2*len(techs))
	}
}
