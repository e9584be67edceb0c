// Command vspsched runs the two-phase video scheduler on a reservation
// batch and emits the service schedule plus a cost report.
//
// Usage:
//
//	vspsched -topo topo.json -catalog catalog.json -requests requests.json \
//	         -srate 5 -nrate 500 -metric space-per-cost -out schedule.json
//
// Given an epoch trigger (-epoch-requests, -epoch-bytes-gb or
// -epoch-tick-hours) it instead replays the batch as timed arrivals through
// the rolling-horizon intake service: each reservation "arrives" -lead-hours
// before it starts, epochs close per the trigger, and every epoch boundary
// incrementally extends the committed schedule instead of re-solving the
// whole batch. With -compare the one-shot scheduler is additionally re-run
// over the accumulated batch at every epoch boundary, reporting how much
// work the incremental service saves and the cost premium it pays (if any).
//
//	vspsched -topo topo.json -catalog catalog.json -requests trace.csv \
//	         -lead-hours 2 -epoch-requests 50 -compare
//
// Both modes drive the same pipeline (internal/scheduler) in-process, and
// -out, -analyze and -bill apply to whichever schedule was produced. To
// drive a running vspserve or vspgateway over HTTP use vspload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/billing"
	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/workload"
)

type options struct {
	topoPath, catPath, reqPath string
	srate, nrate               float64
	metricName, policyName     string
	outPath                    string
	quiet, analyze, bill       bool
	workers                    int

	// Rolling replay; any non-zero epoch trigger selects it.
	leadHours      float64
	epochRequests  int
	epochBytesGB   float64
	epochTickHours float64
	compare        bool
}

func (o options) rolling() bool {
	return o.epochRequests > 0 || o.epochBytesGB > 0 || o.epochTickHours > 0
}

func main() {
	var o options
	flag.StringVar(&o.topoPath, "topo", "", "topology JSON (required)")
	flag.StringVar(&o.catPath, "catalog", "", "catalog JSON (required)")
	flag.StringVar(&o.reqPath, "requests", "", "requests or reservation trace, JSON or CSV (required)")
	flag.Float64Var(&o.srate, "srate", 5, "storage charging rate ($/GB·hour)")
	flag.Float64Var(&o.nrate, "nrate", 500, "network charging rate ($/GB)")
	flag.StringVar(&o.metricName, "metric", "space-per-cost", "heat metric: period | period-per-cost | space | space-per-cost")
	flag.StringVar(&o.policyName, "policy", "cache-on-route", "caching policy: cache-on-route | cache-at-destination | no-caching")
	flag.StringVar(&o.outPath, "out", "", "write the schedule JSON here (the report goes to stdout)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the human-readable report")
	flag.BoolVar(&o.analyze, "analyze", false, "print cache-effectiveness analysis")
	flag.BoolVar(&o.bill, "bill", false, "print the per-reservation invoice")
	flag.IntVar(&o.workers, "workers", 0, "scheduling worker pool size (0 = GOMAXPROCS, 1 = sequential; output is identical for any value)")
	flag.Float64Var(&o.leadHours, "lead-hours", 2, "rolling replay: how long before its start each reservation arrives")
	flag.IntVar(&o.epochRequests, "epoch-requests", 0, "rolling replay: close the epoch after this many pending reservations (0 = off)")
	flag.Float64Var(&o.epochBytesGB, "epoch-bytes-gb", 0, "rolling replay: close the epoch after this many GB of pending stream volume (0 = off)")
	flag.Float64Var(&o.epochTickHours, "epoch-tick-hours", 0, "rolling replay: close the epoch every this many hours of arrival time (0 = off)")
	flag.BoolVar(&o.compare, "compare", false, "rolling replay: also run the full re-solve baseline at every epoch boundary")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "vspsched:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.topoPath == "" || o.catPath == "" || o.reqPath == "" {
		return fmt.Errorf("-topo, -catalog and -requests are required")
	}
	if o.compare && !o.rolling() {
		return fmt.Errorf("-compare needs an epoch trigger (-epoch-requests, -epoch-bytes-gb or -epoch-tick-hours)")
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
	metric, err := sorp.ParseMetric(o.metricName)
	if err != nil {
		return err
	}
	policy, err := ivs.ParsePolicy(o.policyName)
	if err != nil {
		return err
	}
	model := cost.NewUniformModel(topo, cat, o.srate, o.nrate)
	cfg := scheduler.Config{Metric: metric, Policy: policy, Workers: o.workers}

	var sched *schedule.Schedule
	if o.rolling() {
		sched, err = replay(model, reqs, cfg, o)
	} else {
		sched, err = batch(model, reqs, cfg, o.quiet)
	}
	if err != nil {
		return err
	}
	if o.analyze {
		fmt.Println("--- analysis ---")
		if err := analysis.Summarize(model, sched).Write(os.Stdout, 5); err != nil {
			return err
		}
	}
	if o.bill {
		st, err := billing.Attribute(model, sched)
		if err != nil {
			return err
		}
		fmt.Println("--- invoice ---")
		if err := st.Write(os.Stdout); err != nil {
			return err
		}
	}
	if o.outPath != "" {
		return cli.SaveJSON(o.outPath, sched)
	}
	return nil
}

// batch solves the whole request set at once.
func batch(model *cost.Model, reqs workload.Set, cfg scheduler.Config, quiet bool) (*schedule.Schedule, error) {
	out, err := scheduler.Run(model, reqs, cfg)
	if err != nil {
		return nil, err
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
	return out.Schedule, nil
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

// replay streams the request set through a rolling-horizon service and
// returns the schedule committed once every reservation is planned.
func replay(model *cost.Model, reqs workload.Set, cfg scheduler.Config, o options) (*schedule.Schedule, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("empty reservation trace")
	}
	trace := buildTrace(reqs, simtime.Duration(o.leadHours*float64(simtime.Hour)))
	svc := horizon.New(model, horizon.Config{
		Policy:        cfg.Policy,
		Metric:        cfg.Metric,
		EpochRequests: o.epochRequests,
		EpochBytes:    o.epochBytesGB * 1e9,
		EpochTick:     simtime.Duration(o.epochTickHours * float64(simtime.Hour)),
		Workers:       cfg.Workers,
	})

	ctx := context.Background()
	if !o.quiet {
		fmt.Printf("%-6s %-10s %9s %9s %8s %8s %9s %12s %10s\n",
			"epoch", "horizon", "admitted", "replanned", "frozenD", "frozenC", "victims", "cost", "elapsed")
	}
	var incrElapsed, fullElapsed time.Duration
	flush := func(to simtime.Time) error {
		t0 := time.Now()
		res, err := svc.Advance(ctx, to)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		incrElapsed += dt
		if !o.quiet {
			fmt.Printf("%-6d %-10v %9d %9d %8d %8d %9d %12v %10v\n",
				res.Epoch, res.Horizon, res.Admitted, res.Replanned,
				res.FrozenDeliveries, res.FrozenResidencies, len(res.Victims), res.Cost, dt.Round(time.Millisecond))
		}
		if o.compare {
			t1 := time.Now()
			out, err := scheduler.Schedule(ctx, model, svc.Accepted(), cfg)
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
			return nil, fmt.Errorf("submit (user %d, video %d, %v): %w", a.r.User, a.r.Video, a.r.Start, err)
		}
		if ack.EpochDue {
			if err := flush(a.at); err != nil {
				return nil, err
			}
		}
	}
	if svc.Pending() > 0 {
		if err := flush(trace[len(trace)-1].at); err != nil {
			return nil, err
		}
	}

	p := svc.Plan()
	if !o.quiet {
		fmt.Printf("\nreservations      %d (planned %d over %d epochs)\n", len(reqs), len(reqs)-p.Pending, p.Epoch)
		fmt.Printf("committed cost    %v\n", p.Cost)
		fmt.Printf("incremental time  %v\n", incrElapsed.Round(time.Millisecond))
		if o.compare {
			fmt.Printf("full-resolve time %v\n", fullElapsed.Round(time.Millisecond))
			if incrElapsed > 0 {
				fmt.Printf("speedup           %.1fx\n", float64(fullElapsed)/float64(incrElapsed))
			}
		}
	}
	return p.Schedule, nil
}
