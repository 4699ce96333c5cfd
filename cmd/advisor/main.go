// Command advisor extracts matrix features, recommends a reordering
// technique, and trains/evaluates the selection model against measured
// miss rates.
//
// Usage:
//
//	advisor features [-in a.mtx | -matrix name [-corpus small|full]] [-json]
//	advisor advise   [-in a.mtx | -matrix name [-corpus small|full]] [-model m]
//	advisor train    [-data d.tsv | -corpus small|full [-matrices a,b] [-workers n]]
//	                 [-out model.json] [-dump-data d.tsv]
//	advisor eval     [-data d.tsv | -corpus small|full [-matrices a,b] [-workers n]]
//	                 [-model m] [-mistakes]
//
// The -model flag accepts "default" (the committed artifact), "rule" (the
// paper-threshold rules), "fixed:TECH" (an always-TECH baseline), or a
// path to a trained JSON artifact. Without -data, train and eval build the
// dataset by simulating every candidate technique over the chosen corpus,
// exactly like the experiments harness.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/sparse"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: advisor features|advise|train|eval [flags] (see -h of each)")
	}
	switch args[0] {
	case "features":
		return runFeatures(args[1:])
	case "advise":
		return runAdvise(args[1:])
	case "train":
		return runTrain(args[1:])
	case "eval":
		return runEval(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want features, advise, train, or eval)", args[0])
	}
}

// matrixFlags is the shared -in / -matrix / -corpus matrix selector.
type matrixFlags struct {
	in     *string
	matrix *string
	corpus *string
}

func addMatrixFlags(fs *flag.FlagSet) matrixFlags {
	return matrixFlags{
		in:     fs.String("in", "", "input MatrixMarket file"),
		matrix: fs.String("matrix", "", "corpus matrix name (alternative to -in)"),
		corpus: fs.String("corpus", "small", "corpus preset for -matrix: small or full"),
	}
}

// load resolves the selector to a matrix and a display name.
func (mf matrixFlags) load() (*sparse.CSR, string, error) {
	switch {
	case *mf.in != "" && *mf.matrix != "":
		return nil, "", fmt.Errorf("-in and -matrix are mutually exclusive")
	case *mf.in != "":
		f, err := os.Open(*mf.in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		m, err := sparse.ReadMatrixMarket(bufio.NewReader(f))
		if err != nil {
			return nil, "", err
		}
		return m, *mf.in, nil
	case *mf.matrix != "":
		preset, err := gen.ParsePreset(*mf.corpus)
		if err != nil {
			return nil, "", err
		}
		e, err := gen.ByName(*mf.matrix)
		if err != nil {
			return nil, "", err
		}
		return e.Generate(preset), e.Name, nil
	default:
		return nil, "", fmt.Errorf("one of -in or -matrix is required")
	}
}

// parseModel resolves the -model flag value.
func parseModel(s string) (advisor.Model, error) {
	switch {
	case s == "" || s == "default":
		return advisor.DefaultModel(), nil
	case s == "rule":
		return advisor.RuleModel{}, nil
	case strings.HasPrefix(s, "fixed:"):
		return advisor.FixedModel{Technique: strings.TrimPrefix(s, "fixed:")}, nil
	default:
		data, err := os.ReadFile(s)
		if err != nil {
			return nil, err
		}
		return advisor.ParseLinearModel(data)
	}
}

func runFeatures(args []string) error {
	fs := flag.NewFlagSet("advisor features", flag.ContinueOnError)
	mf := addMatrixFlags(fs)
	asJSON := fs.Bool("json", false, "emit the features as JSON instead of name=value lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, name, err := mf.load()
	if err != nil {
		return err
	}
	f := advisor.ExtractFeatures(m)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(f)
	}
	fmt.Printf("matrix=%s rows=%d nnz=%d\n", name, f.Rows, f.NNZ)
	vec := f.Vector()
	for i, fn := range advisor.FeatureNames() {
		fmt.Printf("  %-16s %.6f\n", fn, vec[i])
	}
	return nil
}

func runAdvise(args []string) error {
	fs := flag.NewFlagSet("advisor advise", flag.ContinueOnError)
	mf := addMatrixFlags(fs)
	modelFlag := fs.String("model", "default", "model: default, rule, fixed:TECH, or a JSON artifact path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, name, err := mf.load()
	if err != nil {
		return err
	}
	model, err := parseModel(*modelFlag)
	if err != nil {
		return err
	}
	rec := advisor.Recommend(model, advisor.ExtractFeatures(m))
	fmt.Printf("matrix=%s model=%s best=%s confidence=%.3f\n", name, rec.Model, rec.Best(), rec.Confidence)
	for i, s := range rec.Ranked {
		fmt.Printf("  %d. %-10s score=%.5f\n", i+1, s.Technique, s.Score)
	}
	return nil
}

// datasetFlags is the shared -data / corpus-sweep dataset selector.
type datasetFlags struct {
	data     *string
	corpus   *string
	matrices *string
	workers  *int
	verbose  *bool
}

func addDatasetFlags(fs *flag.FlagSet) datasetFlags {
	return datasetFlags{
		data:     fs.String("data", "", "dataset TSV (default: simulate the corpus)"),
		corpus:   fs.String("corpus", "small", "corpus preset when simulating: small or full"),
		matrices: fs.String("matrices", "", "comma-separated corpus subset when simulating"),
		workers:  fs.Int("workers", 0, "concurrent simulation workers (0 = all CPUs)"),
		verbose:  fs.Bool("v", false, "log per-matrix progress to stderr"),
	}
}

// load reads the TSV or simulates the corpus sweep.
func (df datasetFlags) load() ([]advisor.Sample, error) {
	if *df.data != "" {
		f, err := os.Open(*df.data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return advisor.ReadDataset(bufio.NewReader(f))
	}
	preset, err := gen.ParsePreset(*df.corpus)
	if err != nil {
		return nil, err
	}
	cfg := experiments.SmallConfig()
	if preset == gen.Full {
		cfg = experiments.FullConfig()
	}
	if cfg.Matrices, err = gen.ParseMatrices(*df.matrices); err != nil {
		return nil, err
	}
	cfg.Workers = *df.workers
	if *df.verbose {
		cfg.Progress = os.Stderr
	}
	return experiments.AdvisorSamples(experiments.NewRunner(cfg))
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("advisor train", flag.ContinueOnError)
	df := addDatasetFlags(fs)
	out := fs.String("out", "", "write the trained model artifact to this path (default: stdout)")
	dumpData := fs.String("dump-data", "", "also write the dataset TSV to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := df.load()
	if err != nil {
		return err
	}
	if *dumpData != "" {
		f, err := os.Create(*dumpData)
		if err != nil {
			return err
		}
		if err := advisor.WriteDataset(f, samples); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d samples to %s\n", len(samples), *dumpData)
	}
	model, err := advisor.Train(samples)
	if err != nil {
		return err
	}
	blob, err := model.MarshalIndent()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	rep := advisor.Evaluate(model, samples)
	fmt.Printf("trained on %d samples -> %s\n", len(samples), *out)
	fmt.Printf("training-set %s\n", rep.Summary())
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("advisor eval", flag.ContinueOnError)
	df := addDatasetFlags(fs)
	modelFlag := fs.String("model", "default", "model: default, rule, fixed:TECH, or a JSON artifact path")
	mistakes := fs.Bool("mistakes", false, "also list mispredicted matrices, worst regret first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := df.load()
	if err != nil {
		return err
	}
	model, err := parseModel(*modelFlag)
	if err != nil {
		return err
	}
	for _, rep := range advisor.CompareBaselines(model, samples) {
		fmt.Println(rep.Summary())
	}
	if *mistakes {
		rep := advisor.Evaluate(model, samples)
		for _, row := range rep.Mistakes() {
			fmt.Printf("  miss %-24s predicted=%-10s oracle=%-10s regret=%.5f\n",
				row.Matrix, row.Predicted, row.Oracle, row.Regret)
		}
	}
	return nil
}
