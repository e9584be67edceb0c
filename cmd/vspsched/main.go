// Command vspsched runs the two-phase video scheduler on a reservation
// batch and emits the service schedule plus a cost report.
//
// Usage:
//
//	vspsched -topo topo.json -catalog catalog.json -requests requests.json \
//	         -srate 5 -nrate 500 -metric space-per-cost -out schedule.json
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/billing"
	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/sorp"
)

func main() {
	var (
		topoPath = flag.String("topo", "", "topology JSON (required)")
		catPath  = flag.String("catalog", "", "catalog JSON (required)")
		reqPath  = flag.String("requests", "", "requests JSON (required)")
		srate    = flag.Float64("srate", 5, "storage charging rate ($/GB·hour)")
		nrate    = flag.Float64("nrate", 500, "network charging rate ($/GB)")
		metric   = flag.String("metric", "space-per-cost", "heat metric: period | period-per-cost | space | space-per-cost")
		policy   = flag.String("policy", "cache-on-route", "caching policy: cache-on-route | cache-at-destination | no-caching")
		outPath  = flag.String("out", "", "write schedule JSON here (default stdout suppressed; report always on stderr-free stdout)")
		quiet    = flag.Bool("quiet", false, "suppress the human-readable report")
		analyze  = flag.Bool("analyze", false, "print cache-effectiveness analysis")
		bill     = flag.Bool("bill", false, "print the per-reservation invoice")
		workers  = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS, 1 = sequential; output is identical for any value)")
	)
	flag.Parse()
	if err := run(*topoPath, *catPath, *reqPath, *srate, *nrate, *metric, *policy, *outPath, *quiet, *analyze, *bill, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "vspsched:", err)
		os.Exit(1)
	}
}

func run(topoPath, catPath, reqPath string, srate, nrate float64, metricName, policyName, outPath string, quiet, analyze, bill bool, workers int) error {
	if topoPath == "" || catPath == "" || reqPath == "" {
		return fmt.Errorf("-topo, -catalog and -requests are required")
	}
	topo, err := cli.LoadTopology(topoPath)
	if err != nil {
		return err
	}
	cat, err := cli.LoadCatalog(catPath)
	if err != nil {
		return err
	}
	reqs, err := cli.LoadRequestsAuto(reqPath, topo, cat)
	if err != nil {
		return err
	}
	metric, err := sorp.ParseMetric(metricName)
	if err != nil {
		return err
	}
	policy, err := ivs.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	model := cli.BuildModel(topo, cat, srate, nrate)
	out, err := scheduler.Run(model, reqs, scheduler.Config{Metric: metric, Policy: policy, Workers: workers})
	if err != nil {
		return err
	}
	if !quiet {
		bd := model.CostBreakdown(out.Schedule)
		fmt.Printf("requests          %d\n", len(reqs))
		fmt.Printf("deliveries        %d\n", out.Schedule.NumDeliveries())
		fmt.Printf("residencies       %d\n", out.Schedule.NumResidencies())
		fmt.Printf("overflows (raw)   %d\n", out.Overflows)
		fmt.Printf("victims           %d\n", len(out.Victims))
		fmt.Printf("phase-1 cost      %v\n", out.Phase1Cost)
		fmt.Printf("final cost        %v\n", out.FinalCost)
		fmt.Printf("  storage         %v\n", bd.Storage)
		fmt.Printf("  network         %v\n", bd.Network)
	}
	if analyze {
		fmt.Println("--- analysis ---")
		if err := analysis.Summarize(model, out.Schedule).Write(os.Stdout, 5); err != nil {
			return err
		}
	}
	if bill {
		st, err := billing.Attribute(model, out.Schedule)
		if err != nil {
			return err
		}
		fmt.Println("--- invoice ---")
		if err := st.Write(os.Stdout); err != nil {
			return err
		}
	}
	if outPath != "" {
		return cli.SaveJSON(outPath, out.Schedule)
	}
	return nil
}
