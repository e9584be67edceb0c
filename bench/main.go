// Command bench is the repository's benchmark: four named workloads run in
// one process — three over loopback HTTP on exactly two client connections,
// one straight into the scheduler — with every metric printed as
// "name value unit", the outputs checked, and a separate traced pass that
// times the calls into each layer from outside. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root lists them for the driver.
//
//	go run ./bench                          full sizing, both passes
//	go run ./bench -workload intake_heavy -seconds 20 -trace 0
//	go run ./bench -smoke
//	go run ./bench -compare a.json b.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
)

// knownFailuresJSON is the known-failure ledger: operations that fail on
// the current tree for a diagnosed reason. They count as failed
// operations; the ledger only lets a report tell them from new failures.
//
//go:embed known_failures.json
var knownFailuresJSON []byte

var knownPatterns = func() []*regexp.Regexp {
	var entries []struct {
		Pattern string `json:"pattern"`
	}
	if err := json.Unmarshal(knownFailuresJSON, &entries); err != nil {
		panic("bench: known_failures.json: " + err.Error())
	}
	var out []*regexp.Regexp
	for _, e := range entries {
		out = append(out, regexp.MustCompile(e.Pattern))
	}
	return out
}()

func knownFailure(msg string) bool {
	for _, re := range knownPatterns {
		if re.MatchString(msg) {
			return true
		}
	}
	return false
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Smoke     bool              `json:"smoke"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of intake_light, intake_heavy, gateway_paced, batch_solve")
	seed := fs.Int64("seed", 1, "trace seed")
	seconds := fs.Int("seconds", 0, "measuring budget per workload in seconds; 0 runs the full sizing")
	reps := fs.Int("reps", 0, "repetitions per workload; 0 keeps each workload's own count")
	trace := fs.String("trace", "both", "0: end-to-end pass only; 1: traced pass and layer ladder only; both")
	smoke := fs.Bool("smoke", false, "cut every workload to a few hundred requests")
	dir := fs.String("dir", filepath.Join("bench", "out"), "directory for the result JSON, span files and data directories")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare baseline.json candidate.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, smoke: *smoke, outDir: *dir}
	switch *trace {
	case "0":
		o.endToEnd = true
	case "1":
		o.traced = true
	case "both":
		o.endToEnd, o.traced = true, true
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	data, err := os.MkdirTemp(*dir, "data-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(data)
	o.dataDir = data

	file := resultFile{Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	for _, name := range names {
		var res *workloadResult
		if name == "batch_solve" {
			res, err = runBatch(o)
		} else {
			res, err = runIntake(name, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printWorkload(stdout, res, o)
		file.Workloads = append(file.Workloads, res)
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*dir, "result.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(names) == 1 {
		fmt.Fprintln(stdout, driverLine(file.Workloads[0], o))
	}
	return 0
}

// printWorkload prints every metric as "name value unit", with the spread
// over repetitions and the sample count after it.
func printWorkload(w io.Writer, res *workloadResult, o options) {
	fmt.Fprintf(w, "# workload %s seed %d: %s\n", res.Name, o.seed, workloadWhy[res.Name])
	line := func(name string, v value) {
		fmt.Fprintf(w, "%s %s %s", name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		if v.Reps > 1 {
			fmt.Fprintf(w, "  (min %.6g max %.6g reps %d)", v.Min, v.Max, v.Reps)
		}
		if v.N > 0 {
			fmt.Fprintf(w, "  n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
	for _, def := range endToEnd {
		if v, ok := res.Metrics[def.name]; ok {
			line(def.name, v)
		}
	}
	if res.Layers != nil {
		fmt.Fprintln(w, "# per-layer: one traced repetition, then the layer ladder")
		for _, def := range perLayer {
			if v, ok := res.Layers[def.name]; ok {
				line(def.name, v)
			}
		}
	}
	fmt.Fprintf(w, "# operations: attempted %d failed %d (known failures %d) counts %+v perturbed epochs %d\n",
		res.Attempted, res.Failed, res.KnownFailed, res.Counts, res.Perturbed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# failed: %s\n", f)
	}
}

// driverLine is the one-object summary the benchmark driver reads from the
// last line of standard output. Its metrics are BENCHMARK.json's
// end_to_end list on an end-to-end run and its per_layer list on a traced
// one. Operations that fail for a reason in the known-failure ledger are
// left out of "failed" here — the driver wants workloads on which nothing
// fails, and these fail on every run of the current tree — and show as
// horizon.recover_failed and failed_share instead.
func driverLine(res *workloadResult, o options) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, def := range endToEnd {
		if bounded := def.driverBound > 0; bounded && o.endToEnd || !bounded && o.traced {
			metrics[def.name] = metric{res.Metrics[def.name].Value, def.unit}
		}
	}
	if o.traced {
		for _, def := range perLayer {
			metrics[def.name] = metric{res.Layers[def.name].Value, def.unit}
		}
	}
	failed := res.Failed - res.KnownFailed
	blob, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, res.Attempted, failed, metrics})
	if err != nil {
		panic(err) // a NaN metric: a bug in the benchmark
	}
	return string(blob)
}
