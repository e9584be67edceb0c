// Command vspload is the closed-loop load harness for the reservation
// intake tier. It replays a workload trace (CSV or JSONL, as emitted by
// vspgen) against the HTTP surface of a running vspserve or vspgateway:
// a fixed worker pool submits reservations back-to-back, and the run is
// summarized as submit-latency percentiles (p50/p95/p99/max), shed (429)
// and late-arrival (409) rates and per-shard routing counts. Epochs close
// on the shards' own triggers (vspserve -epoch-requests); the harness never
// posts /v1/advance, and the shards' /v1/stats count what they closed.
//
// Usage:
//
//	vspload -target http://127.0.0.1:8080 -trace trace.jsonl -c 16 -out load.json
//
// Shed requests are counted, never retried: a 429 is the admission
// controller doing its job and the harness's business is to measure it.
// The -out JSON feeds the BENCH trajectory (see cmd/benchjson for the
// micro-benchmark side).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/vodsim/vsp/internal/loadgen"
	"github.com/vodsim/vsp/internal/workload"
)

type options struct {
	target      string
	tracePath   string
	format      string
	name        string
	concurrency int
	timeout     time.Duration
	outPath     string
	quiet       bool
}

func main() {
	var o options
	flag.StringVar(&o.target, "target", "", "base URL of the intake surface — vspserve or vspgateway (required)")
	flag.StringVar(&o.tracePath, "trace", "", "workload trace to replay, CSV or JSONL (required; - reads stdin)")
	flag.StringVar(&o.format, "format", "", "trace format: csv | jsonl (default: by file extension)")
	flag.StringVar(&o.name, "name", "", "label this run; with -out, merge into an array keyed by name instead of overwriting")
	flag.IntVar(&o.concurrency, "c", 8, "closed-loop worker count")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request HTTP timeout")
	flag.StringVar(&o.outPath, "out", "", "write the JSON result here")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the human-readable summary")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "vspload:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.target == "" || o.tracePath == "" {
		return fmt.Errorf("-target and -trace are required")
	}
	in := os.Stdin
	if o.tracePath != "-" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	format := o.format
	if format == "" {
		switch strings.ToLower(filepath.Ext(o.tracePath)) {
		case ".jsonl", ".ndjson":
			format = "jsonl"
		default:
			format = "csv"
		}
	}
	// The target validates users and videos against its own model; the
	// reader only rejects records that are malformed on any model.
	var tr workload.TraceReader
	switch format {
	case "csv":
		tr = workload.NewCSVTraceReader(in, nil, nil)
	case "jsonl":
		tr = workload.NewJSONLTraceReader(in, nil, nil)
	default:
		return fmt.Errorf("unknown format %q (csv | jsonl)", format)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	res, err := loadgen.Run(ctx, loadgen.Config{
		Target:      o.target,
		Concurrency: o.concurrency,
		Timeout:     o.timeout,
	}, tr)
	if err != nil {
		return err
	}
	res.Name = o.name

	if !o.quiet {
		printSummary(res)
	}
	if o.outPath != "" {
		if err := writeResult(o.outPath, res); err != nil {
			return err
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d submit errors (first: %s)", res.Errors, strings.Join(res.ErrorSamples, "; "))
	}
	return nil
}

// writeResult persists the measurement. An unnamed run keeps the legacy
// behaviour: the file is one result object, overwritten. A named run
// merges into an array of results keyed by name — an existing entry with
// the same name is replaced, others pass through byte-for-byte, and a
// legacy single-object file becomes the array's first element.
func writeResult(path string, res *loadgen.Result) error {
	nb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if res.Name == "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(b, '\n'), 0o644)
	}
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	merged, err := mergeNamed(existing, res.Name, nb)
	if err != nil {
		return fmt.Errorf("merging into %s: %w", path, err)
	}
	return os.WriteFile(path, append(merged, '\n'), 0o644)
}

func mergeNamed(existing []byte, name string, entry json.RawMessage) ([]byte, error) {
	var entries []json.RawMessage
	if trimmed := strings.TrimSpace(string(existing)); trimmed != "" {
		if strings.HasPrefix(trimmed, "[") {
			if err := json.Unmarshal([]byte(trimmed), &entries); err != nil {
				return nil, err
			}
		} else {
			// Legacy single-object file: keep it as the first element.
			if !json.Valid([]byte(trimmed)) {
				return nil, fmt.Errorf("existing file is not valid JSON")
			}
			entries = []json.RawMessage{json.RawMessage(trimmed)}
		}
	}
	replaced := false
	for i, e := range entries {
		var peek struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(e, &peek) == nil && peek.Name == name {
			entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, entry)
	}
	return json.MarshalIndent(entries, "", "  ")
}

func printSummary(res *loadgen.Result) {
	fmt.Printf("target      %s  (x%d workers)\n", res.Target, res.Concurrency)
	fmt.Printf("submitted   %d in %s  (%.0f accepted/s)\n",
		res.Submitted, time.Duration(res.ElapsedMS)*time.Millisecond, res.AcceptedPerSec)
	fmt.Printf("outcomes    %d accepted (%.1f%% available), %d shed (%.1f%%), %d late, %d errors\n",
		res.Accepted, 100*res.Availability, res.Shed, 100*res.ShedRate, res.Late, res.Errors)
	if len(res.ErrorsByCause) > 0 {
		causes := make([]string, 0, len(res.ErrorsByCause))
		for c := range res.ErrorsByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		fmt.Printf("err causes ")
		for _, c := range causes {
			fmt.Printf(" %s=%d", c, res.ErrorsByCause[c])
		}
		fmt.Println()
	}
	fmt.Printf("submit      p50 %s  p95 %s  p99 %s  max %s\n",
		res.Submit.P50, res.Submit.P95, res.Submit.P99, res.Submit.Max)
	if len(res.ShardRouted) > 0 {
		shards := make([]string, 0, len(res.ShardRouted))
		for s := range res.ShardRouted {
			shards = append(shards, s)
		}
		sort.Strings(shards)
		fmt.Printf("routing    ")
		for _, s := range shards {
			fmt.Printf(" %s=%d", s, res.ShardRouted[s])
		}
		fmt.Println()
	}
}
