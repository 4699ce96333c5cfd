package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestHistogramBuckets pins the log2-ms bucket boundaries of both latency
// series: the le="2^i" bucket counts observations under 2^i ms, so 1 ms
// falls in le="2", 65,535 ms in le="65536" and 65,536 ms in +Inf. The
// feature histogram renders only once an extraction has been observed.
func TestHistogramBuckets(t *testing.T) {
	m := newMetrics()
	var out bytes.Buffer
	m.render(&out, 0, 0)
	if strings.Contains(out.String(), "_ms_bucket") {
		t.Fatalf("histograms rendered before any observation:\n%s", out.String())
	}
	for _, ms := range []time.Duration{0, 1, 2, 3, 65535, 65536, 3600000} {
		m.observeJob("RABBIT", ms*time.Millisecond, false)
		m.observeFeatures(ms * time.Millisecond)
	}
	out.Reset()
	m.render(&out, 0, 0)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "_ms_bucket") {
			got = append(got, line)
		}
	}
	const want = `reorderd_advisor_features_ms_bucket{le="1"} 1
reorderd_advisor_features_ms_bucket{le="2"} 2
reorderd_advisor_features_ms_bucket{le="4"} 4
reorderd_advisor_features_ms_bucket{le="8"} 4
reorderd_advisor_features_ms_bucket{le="16"} 4
reorderd_advisor_features_ms_bucket{le="32"} 4
reorderd_advisor_features_ms_bucket{le="64"} 4
reorderd_advisor_features_ms_bucket{le="128"} 4
reorderd_advisor_features_ms_bucket{le="256"} 4
reorderd_advisor_features_ms_bucket{le="512"} 4
reorderd_advisor_features_ms_bucket{le="1024"} 4
reorderd_advisor_features_ms_bucket{le="2048"} 4
reorderd_advisor_features_ms_bucket{le="4096"} 4
reorderd_advisor_features_ms_bucket{le="8192"} 4
reorderd_advisor_features_ms_bucket{le="16384"} 4
reorderd_advisor_features_ms_bucket{le="32768"} 4
reorderd_advisor_features_ms_bucket{le="65536"} 5
reorderd_advisor_features_ms_bucket{le="+Inf"} 7
reorderd_job_ms_bucket{technique="RABBIT",le="1"} 1
reorderd_job_ms_bucket{technique="RABBIT",le="2"} 2
reorderd_job_ms_bucket{technique="RABBIT",le="4"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="8"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="16"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="32"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="64"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="128"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="256"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="512"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="1024"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="2048"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="4096"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="8192"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="16384"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="32768"} 4
reorderd_job_ms_bucket{technique="RABBIT",le="65536"} 5
reorderd_job_ms_bucket{technique="RABBIT",le="+Inf"} 7`
	if g := strings.Join(got, "\n"); g != want {
		t.Fatalf("bucket lines:\n%s\nwant:\n%s", g, want)
	}
}
