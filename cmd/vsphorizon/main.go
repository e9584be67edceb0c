// Command vsphorizon replays a reservation trace as timed arrivals through
// the rolling-horizon intake service: each reservation "arrives" a lead
// time before it starts, epochs close per the configured trigger, and every
// epoch boundary incrementally extends the committed schedule instead of
// re-solving the whole batch.
//
// Usage:
//
//	vsphorizon -topo topo.json -catalog catalog.json -requests trace.csv \
//	           -lead-hours 2 -epoch-requests 50
//
// With -compare it additionally re-runs the one-shot scheduler over the
// accumulated batch at every epoch boundary, reporting how much work the
// incremental service saves and the cost premium it pays (if any).
//
// The replay is in-process; to drive a running vspserve or vspgateway
// over HTTP use vspload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/workload"
)

type options struct {
	topoPath, catPath, reqPath string
	srate, nrate               float64
	metricName, policyName     string
	leadHours                  float64
	epochRequests              int
	epochBytesGB               float64
	epochTickHours             float64
	workers                    int
	compare                    bool
	outPath                    string
	quiet                      bool
}

func main() {
	var o options
	flag.StringVar(&o.topoPath, "topo", "", "topology JSON (required)")
	flag.StringVar(&o.catPath, "catalog", "", "catalog JSON (required)")
	flag.StringVar(&o.reqPath, "requests", "", "reservation trace, JSON or CSV (required)")
	flag.Float64Var(&o.srate, "srate", 5, "storage charging rate ($/GB·hour)")
	flag.Float64Var(&o.nrate, "nrate", 500, "network charging rate ($/GB)")
	flag.StringVar(&o.metricName, "metric", "space-per-cost", "heat metric: period | period-per-cost | space | space-per-cost")
	flag.StringVar(&o.policyName, "policy", "cache-on-route", "caching policy: cache-on-route | cache-at-destination | no-caching")
	flag.Float64Var(&o.leadHours, "lead-hours", 2, "how long before its start each reservation arrives")
	flag.IntVar(&o.epochRequests, "epoch-requests", 50, "close the epoch after this many pending reservations (0 = off)")
	flag.Float64Var(&o.epochBytesGB, "epoch-bytes-gb", 0, "close the epoch after this many GB of pending stream volume (0 = off)")
	flag.Float64Var(&o.epochTickHours, "epoch-tick-hours", 0, "close the epoch every this many hours of arrival time (0 = off)")
	flag.IntVar(&o.workers, "workers", 0, "per-file scheduling fan-out (0 = GOMAXPROCS)")
	flag.BoolVar(&o.compare, "compare", false, "also run the full re-solve baseline at every epoch boundary")
	flag.StringVar(&o.outPath, "out", "", "write the final committed schedule JSON here")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the per-epoch table")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "vsphorizon:", err)
		os.Exit(1)
	}
}

// arrival is one reservation and the instant it reaches the intake.
type arrival struct {
	at simtime.Time
	r  workload.Request
}

// buildTrace turns a reservation set into a timed arrival sequence: each
// reservation arrives `lead` before it starts (never before t=0), replayed
// in arrival order.
func buildTrace(reqs workload.Set, lead simtime.Duration) []arrival {
	trace := make([]arrival, len(reqs))
	for i, r := range reqs {
		at := r.Start.Add(-lead)
		if at < 0 {
			at = 0
		}
		trace[i] = arrival{at: at, r: r}
	}
	sort.Slice(trace, func(i, j int) bool {
		if trace[i].at != trace[j].at {
			return trace[i].at < trace[j].at
		}
		if trace[i].r.Start != trace[j].r.Start {
			return trace[i].r.Start < trace[j].r.Start
		}
		return trace[i].r.User < trace[j].r.User
	})
	return trace
}

func run(o options) error {
	if o.topoPath == "" || o.catPath == "" || o.reqPath == "" {
		return fmt.Errorf("-topo, -catalog and -requests are required")
	}
	topo, err := cli.LoadTopology(o.topoPath)
	if err != nil {
		return err
	}
	cat, err := cli.LoadCatalog(o.catPath)
	if err != nil {
		return err
	}
	reqs, err := cli.LoadRequestsAuto(o.reqPath, topo, cat)
	if err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("empty reservation trace")
	}
	lead := simtime.Duration(o.leadHours * float64(simtime.Hour))
	trace := buildTrace(reqs, lead)
	metric, err := sorp.ParseMetric(o.metricName)
	if err != nil {
		return err
	}
	policy, err := ivs.ParsePolicy(o.policyName)
	if err != nil {
		return err
	}
	model := cli.BuildModel(topo, cat, o.srate, o.nrate)
	svc := horizon.New(model, horizon.Config{
		Policy:        policy,
		Metric:        metric,
		EpochRequests: o.epochRequests,
		EpochBytes:    o.epochBytesGB * 1e9,
		EpochTick:     simtime.Duration(o.epochTickHours * float64(simtime.Hour)),
		Workers:       o.workers,
	})

	ctx := context.Background()
	if !o.quiet {
		fmt.Printf("%-6s %-10s %9s %9s %8s %8s %9s %12s %10s\n",
			"epoch", "horizon", "admitted", "replanned", "frozenD", "frozenC", "victims", "cost", "elapsed")
	}
	var (
		incrElapsed time.Duration
		fullElapsed time.Duration
		planned     int
	)
	flush := func(to simtime.Time) error {
		t0 := time.Now()
		res, err := svc.Advance(ctx, to)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		incrElapsed += dt
		planned += res.Admitted
		if !o.quiet {
			fmt.Printf("%-6d %-10v %9d %9d %8d %8d %9d %12v %10v\n",
				res.Epoch, res.Horizon, res.Admitted, res.Replanned,
				res.FrozenDeliveries, res.FrozenResidencies, len(res.Victims), res.Cost, dt.Round(time.Millisecond))
		}
		if o.compare {
			t1 := time.Now()
			out, err := scheduler.Schedule(ctx, model, svc.Accepted(), scheduler.Config{Metric: metric, Policy: policy})
			if err != nil {
				return fmt.Errorf("full re-solve baseline: %w", err)
			}
			d := time.Since(t1)
			fullElapsed += d
			if !o.quiet {
				fmt.Printf("%-6s %-10s %29s full re-solve %12v %10v\n", "", "", "", out.FinalCost, d.Round(time.Millisecond))
			}
		}
		return nil
	}

	for _, a := range trace {
		ack, err := svc.Submit(a.at, a.r)
		if err != nil {
			return fmt.Errorf("submit (user %d, video %d, %v): %w", a.r.User, a.r.Video, a.r.Start, err)
		}
		if ack.EpochDue {
			if err := flush(a.at); err != nil {
				return err
			}
		}
	}
	if svc.Pending() > 0 {
		if err := flush(trace[len(trace)-1].at); err != nil {
			return err
		}
	}

	fmt.Printf("\nreservations      %d (planned %d over %d epochs)\n", len(reqs), planned, svc.Epoch())
	fmt.Printf("committed cost    %v\n", svc.Cost())
	fmt.Printf("incremental time  %v\n", incrElapsed.Round(time.Millisecond))
	if o.compare {
		fmt.Printf("full-resolve time %v\n", fullElapsed.Round(time.Millisecond))
		if incrElapsed > 0 {
			fmt.Printf("speedup           %.1fx\n", float64(fullElapsed)/float64(incrElapsed))
		}
	}
	if o.outPath != "" {
		return cli.SaveJSON(o.outPath, svc.Committed())
	}
	return nil
}
