package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as the probe child, as the
// benchmark binary does for its windows.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-probe-child" {
		os.Exit(probeMain())
	}
	os.Exit(m.Run())
}

// TestSpeedProbe starts probe children and stops them, from the owner and
// from stopProbes at once: each reports at least one timed slice, is
// waited for, and leaves no probe registered.
func TestSpeedProbe(t *testing.T) {
	ps := []*speedProbe{startProbe(), startProbe()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stopProbes()
	}()
	for _, p := range ps {
		med, err := p.stop()
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range med {
			if m <= 0 {
				t.Errorf("median %s part %v ns, want > 0", refParts[i], m)
			}
		}
		if again, err := p.stop(); again != med || err != nil {
			t.Errorf("second stop gave %v, %v; want %v, nil", again, err, med)
		}
	}
	<-done
	probesMu.Lock()
	defer probesMu.Unlock()
	if len(probes) != 0 {
		t.Errorf("%d probes still registered", len(probes))
	}
}
