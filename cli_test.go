package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
	"repro/internal/report"
)

// buildTool compiles one cmd/ binary into the test's temp dir once.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the full toolchain end to end: generate a corpus
// matrix, reorder it, verify the kernel on the reordered file, and
// simulate its cache behaviour.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	reorderBin := buildTool(t, dir, "reorder")
	spmv := buildTool(t, dir, "spmv")
	cachesimBin := buildTool(t, dir, "cachesim")

	out := runTool(t, mtxgen, "-out", dir, "-matrices", "soc-tight-2")
	if !strings.Contains(out, "soc-tight-2") {
		t.Fatalf("mtxgen output: %s", out)
	}
	mtx := filepath.Join(dir, "soc-tight-2.mtx")
	if _, err := os.Stat(mtx); err != nil {
		t.Fatal(err)
	}

	reordered := filepath.Join(dir, "reordered.mtx")
	permFile := filepath.Join(dir, "perm.txt")
	out = runTool(t, reorderBin, "-in", mtx, "-out", reordered, "-technique", "RABBIT++", "-perm", permFile, "-stats")
	if !strings.Contains(out, "RABBIT++") || !strings.Contains(out, "insularity=") {
		t.Fatalf("reorder output: %s", out)
	}
	if _, err := os.Stat(permFile); err != nil {
		t.Fatal(err)
	}

	out = runTool(t, spmv, "-in", reordered, "-iters", "2")
	if !strings.Contains(out, "verified: max abs error") {
		t.Fatalf("spmv output: %s", out)
	}

	out = runTool(t, cachesimBin, "-in", mtx, "-l2", "32768", "-techniques", "RANDOM,RABBIT++")
	if !strings.Contains(out, "RABBIT++") || !strings.Contains(out, "traffic") {
		t.Fatalf("cachesim output: %s", out)
	}
}

// TestCLIExperiments runs the experiments binary on a tiny subset.
func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "experiments")

	out := runTool(t, bin, "-list")
	for _, want := range []string{"fig2", "table2", "abl-policy", "mawi-like"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "-corpus", "small", "-matrices", "er-deg16", "-run", "device,fig2")
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "er-deg16") {
		t.Fatalf("experiments output:\n%s", out)
	}

	// CSV mode emits a parseable header row.
	out = runTool(t, bin, "-corpus", "small", "-matrices", "er-deg16", "-run", "device", "-csv")
	if !strings.Contains(out, "spec,") {
		t.Fatalf("csv output:\n%s", out)
	}
}

// TestCLIErrors checks the tools fail cleanly on bad input.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	reorderBin := buildTool(t, dir, "reorder")
	if err := exec.Command(reorderBin, "-in", "/no/such.mtx", "-out", "/tmp/x.mtx").Run(); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := exec.Command(reorderBin).Run(); err == nil {
		t.Fatal("missing flags accepted")
	}
	bad := filepath.Join(dir, "bad.mtx")
	if err := os.WriteFile(bad, []byte("not a matrix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(reorderBin, "-in", bad, "-out", filepath.Join(dir, "o.mtx")).Run(); err == nil {
		t.Fatal("garbage matrix accepted")
	}
}

// TestCLISpGEMM drives the spgemm binary: row-wise and cluster-wise
// products on a corpus matrix with the -verify cross-check, product
// output to a file, and the cachesim SpGEMM kernels on the same matrix.
func TestCLISpGEMM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	spgemmBin := buildTool(t, dir, "spgemm")
	cachesimBin := buildTool(t, dir, "cachesim")

	runTool(t, mtxgen, "-out", dir, "-matrices", "soc-tight-2")
	mtx := filepath.Join(dir, "soc-tight-2.mtx")

	out := runTool(t, spgemmBin, "-in", mtx, "-strategy", "merge", "-verify")
	for _, want := range []string{"compression=", "row-wise (merge)", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spgemm row-wise output missing %q:\n%s", want, out)
		}
	}

	product := filepath.Join(dir, "c.mtx")
	out = runTool(t, spgemmBin, "-in", mtx, "-cluster", "-technique", "RABBIT", "-out", product)
	for _, want := range []string{"reordered with RABBIT", "tiles", "accumulator", "distinct B-row loads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spgemm cluster output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(product); err != nil {
		t.Fatal(err)
	}

	// Unknown strategy must fail cleanly.
	if err := exec.Command(spgemmBin, "-in", mtx, "-strategy", "hash").Run(); err == nil {
		t.Fatal("unknown strategy accepted")
	}

	// A 46,341×1 · 1×46,341 outer product has more nonzeros than int32
	// offsets address: the product must be refused with status 1 and a
	// diagnostic, before C's arrays are allocated.
	const n = 46341
	var col, row strings.Builder
	fmt.Fprintf(&col, "%%%%MatrixMarket matrix coordinate real general\n%d 1 %d\n", n, n)
	fmt.Fprintf(&row, "%%%%MatrixMarket matrix coordinate real general\n1 %d %d\n", n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&col, "%d 1 1\n", i)
		fmt.Fprintf(&row, "1 %d 1\n", i)
	}
	colPath, rowPath := filepath.Join(dir, "col.mtx"), filepath.Join(dir, "row.mtx")
	if err := os.WriteFile(colPath, []byte(col.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rowPath, []byte(row.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	big, err := exec.Command(spgemmBin, "-in", colPath, "-b", rowPath).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(big), "2147488281 nonzeros") {
		t.Fatalf("overflowing product: %v\n%s", err, big)
	}

	for _, kernel := range []string{"spgemm", "spgemm-cluster"} {
		out = runTool(t, cachesimBin, "-in", mtx, "-l2", "32768", "-kernel", kernel, "-techniques", "ORIGINAL,RABBIT")
		if !strings.Contains(out, "RABBIT") || !strings.Contains(out, "traffic") {
			t.Fatalf("cachesim -kernel %s output:\n%s", kernel, out)
		}
	}
}

// TestCLIRectangularInput checks the square-only paths reject a
// rectangular matrix with a diagnostic naming the shape (the typed
// sparse.ErrNotSquare path), while plain SpMV on the same file works.
func TestCLIRectangularInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	spmvBin := buildTool(t, dir, "spmv")
	cachesimBin := buildTool(t, dir, "cachesim")

	rect := filepath.Join(dir, "rect.mtx")
	content := "%%MatrixMarket matrix coordinate real general\n3 4 3\n1 2 1.0\n2 3 2.0\n3 4 0.5\n"
	if err := os.WriteFile(rect, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	// Plain SpMV is defined for rectangular matrices and must succeed.
	out := runTool(t, spmvBin, "-in", rect, "-iters", "1")
	if !strings.Contains(out, "verified: max abs error") {
		t.Fatalf("plain rectangular spmv output:\n%s", out)
	}

	// Asking for a symmetric reordering must fail with the shape named.
	cmd := exec.Command(spmvBin, "-in", rect, "-technique", "RABBIT")
	got, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("spmv -technique accepted a rectangular matrix:\n%s", got)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("spmv did not run: %v", err)
	}
	for _, want := range []string{"3x4", "not square"} {
		if !strings.Contains(string(got), want) {
			t.Fatalf("diagnostic should contain %q, got:\n%s", want, got)
		}
	}

	// cachesim reorders with every technique it runs, RABBIT among the
	// defaults: it must refuse the file with status 1, not panic.
	got, err = exec.Command(cachesimBin, "-in", rect).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("cachesim on a rectangular matrix: %v, want exit status 1\n%s", err, got)
	}
	for _, want := range []string{"3x4", "not square"} {
		if !strings.Contains(string(got), want) {
			t.Fatalf("cachesim diagnostic should contain %q, got:\n%s", want, got)
		}
	}
}

// TestCLICachesimCommunitySplit pins cmd/cachesim's community split to the
// experiment Runner's: on the Small er-deg16 with cachesim's default 256
// KiB L2, every row of `-devices 4 -partition community` must equal
// Runner.SimMultiDev under PartCommunity rendered with the same report
// helpers, so the CLI shows the numbers EXPERIMENTS.md defines (RABBIT
// communities of the input, carried through each technique's
// permutation).
func TestCLICachesimCommunitySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	cachesimBin := buildTool(t, dir, "cachesim")
	runTool(t, mtxgen, "-out", dir, "-matrices", "er-deg16")
	techs := []reorder.Technique{reorder.Random{Seed: 0xC0FFEE}, reorder.Rabbit{}, reorder.RabbitPP{}}
	out := runTool(t, cachesimBin, "-in", filepath.Join(dir, "er-deg16.mtx"),
		"-devices", "4", "-partition", "community", "-techniques", "RANDOM,RABBIT,RABBIT++")

	cfg := experiments.SmallConfig()
	cfg.Matrices = []string{"er-deg16"}
	cfg.Device.L2 = cachesim.Config{CapacityBytes: 256 << 10, LineBytes: 128, Ways: 16}
	r := experiments.NewRunner(cfg)
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	want := report.New("", "technique", "traffic", "hit-rate", "remote%", "imbalance", "max-dev")
	for _, tech := range techs {
		s := r.SimMultiDev(md, tech, experiments.SpMV, 4, experiments.PartCommunity)
		want.Add(tech.Name(),
			report.X(gpumodel.NormalizedTraffic(s.Flat(), experiments.SpMV, md.N, md.NNZ)),
			report.Pct(s.Flat().HitRate()),
			report.Pct(s.RemoteFraction()),
			report.F(s.Imbalance()),
			report.Bytes(s.MaxDeviceTrafficBytes()))
	}
	var b strings.Builder
	if err := want.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, b.String()) {
		t.Fatalf("cachesim community split differs from Runner.SimMultiDev\ncachesim:\n%s\nrunner:\n%s", out, b.String())
	}
}

// TestCLITruncatedInput feeds reorder and spmv a MatrixMarket file whose
// header declares more entries than the file holds; both must exit non-zero
// with a diagnostic naming the truncated entry, not panic.
func TestCLITruncatedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	reorderBin := buildTool(t, dir, "reorder")
	spmvBin := buildTool(t, dir, "spmv")

	truncated := filepath.Join(dir, "truncated.mtx")
	content := "%%MatrixMarket matrix coordinate real general\n4 4 5\n1 2 1.0\n2 3 1.0\n"
	if err := os.WriteFile(truncated, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cmd  *exec.Cmd
	}{
		{"reorder", exec.Command(reorderBin, "-in", truncated, "-out", filepath.Join(dir, "o.mtx"))},
		{"spmv", exec.Command(spmvBin, "-in", truncated)},
	} {
		out, err := tc.cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s accepted a truncated file:\n%s", tc.name, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s did not run: %v", tc.name, err)
		}
		if !strings.Contains(string(out), "entry") || !strings.Contains(string(out), "truncated.mtx") {
			t.Fatalf("%s diagnostic should name the file and failing entry, got:\n%s", tc.name, out)
		}
		if strings.Contains(string(out), "panic") {
			t.Fatalf("%s panicked on truncated input:\n%s", tc.name, out)
		}
	}
}
