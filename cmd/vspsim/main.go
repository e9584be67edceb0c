// Command vspsim executes a service schedule on the event-driven simulator
// and reports feasibility and independently derived costs. It can inject a
// fault scenario into the execution and compute a failure-aware repaired
// schedule.
//
// Usage:
//
//	vspsim -topo topo.json -catalog catalog.json -schedule schedule.json \
//	       -requests requests.json -srate 5 -nrate 500
//	vspsim ... -faults scenario.json -repair reroute
//	vspsim ... -fault-seed 42 -repair vw-direct
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/repair"
	"github.com/vodsim/vsp/internal/vodsim"
	"github.com/vodsim/vsp/internal/workload"
)

type options struct {
	topoPath, catPath, schedPath, reqPath string
	srate, nrate                          float64
	verbose, auditRun                     bool
	faultsPath                            string
	faultSeed                             int64
	repairPolicy                          string
	repairOut                             string
}

func main() {
	var o options
	flag.StringVar(&o.topoPath, "topo", "", "topology JSON (required)")
	flag.StringVar(&o.catPath, "catalog", "", "catalog JSON (required)")
	flag.StringVar(&o.schedPath, "schedule", "", "schedule JSON (required)")
	flag.StringVar(&o.reqPath, "requests", "", "requests JSON (optional; validates coverage)")
	flag.Float64Var(&o.srate, "srate", 5, "storage charging rate ($/GB·hour)")
	flag.Float64Var(&o.nrate, "nrate", 500, "network charging rate ($/GB)")
	flag.BoolVar(&o.verbose, "v", false, "print per-link and per-node usage")
	flag.BoolVar(&o.auditRun, "audit", false, "run the full audit bundle (validation, capacity, cost triangle, billing)")
	flag.StringVar(&o.faultsPath, "faults", "", "fault scenario JSON to inject into the execution")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "generate a random fault scenario from this seed (ignored with -faults)")
	flag.StringVar(&o.repairPolicy, "repair", "", "repair the schedule against the scenario: reroute or vw-direct")
	flag.StringVar(&o.repairOut, "repair-out", "", "write the repaired schedule JSON here (\"-\" for stdout)")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "vspsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	if o.topoPath == "" || o.catPath == "" || o.schedPath == "" {
		return fmt.Errorf("-topo, -catalog and -schedule are required")
	}
	topo, err := cli.LoadTopology(o.topoPath)
	if err != nil {
		return err
	}
	cat, err := cli.LoadCatalog(o.catPath)
	if err != nil {
		return err
	}
	sched, err := cli.LoadSchedule(o.schedPath)
	if err != nil {
		return err
	}
	// The simulator, the repairer and billing index by the IDs a schedule
	// holds, so one that does not resolve against this topology and catalog
	// is refused here, with its defect named.
	if err := sched.ValidateStructure(topo, cat); err != nil {
		return fmt.Errorf("schedule validation: %w", err)
	}
	model := cost.NewUniformModel(topo, cat, o.srate, o.nrate)
	var reqs workload.Set
	if o.reqPath != "" {
		if reqs, err = cli.LoadRequestsAuto(o.reqPath, topo, cat); err != nil {
			return err
		}
		if err := sched.Serves(reqs); err != nil {
			return fmt.Errorf("schedule validation: %w", err)
		}
		fmt.Fprintf(w, "validation        ok (%d requests)\n", len(reqs))
	}

	var sc *faults.Scenario
	switch {
	case o.faultsPath != "":
		if sc, err = loadScenario(o.faultsPath); err != nil {
			return err
		}
	case o.faultSeed != 0:
		if sc, err = faults.Generate(topo, faults.GenConfig{Seed: o.faultSeed}); err != nil {
			return err
		}
	}
	if err := sc.Validate(topo); err != nil {
		return err
	}

	rep := vodsim.ExecuteScenario(model.Book(), cat, sched, sc)
	fmt.Fprintf(w, "streams           %d\n", rep.Streams)
	fmt.Fprintf(w, "cache loads       %d\n", rep.CacheLoads)
	fmt.Fprintf(w, "violations        %d\n", len(rep.Violations))
	for i, v := range rep.Violations {
		if i >= 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(rep.Violations)-10)
			break
		}
		fmt.Fprintf(w, "  %v\n", v)
	}
	if !sc.Empty() {
		fmt.Fprintf(w, "faults            %d (missed %d, severed %d, dead copies %d)\n",
			len(sc.Faults), rep.Missed, rep.Severed, rep.DeadResidencies)
		for _, f := range sc.Faults {
			fmt.Fprintf(w, "  inject: %v\n", f)
		}
		for i, n := range rep.FaultNotes {
			if i >= 10 {
				fmt.Fprintf(w, "  ... %d more\n", len(rep.FaultNotes)-10)
				break
			}
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
	fmt.Fprintf(w, "simulated cost    %v (network %v + storage %v)\n",
		rep.TotalCost(), rep.NetworkCost, rep.StorageCost)
	analytic := model.ScheduleCost(sched)
	fmt.Fprintf(w, "analytic Ψ(S)     %v\n", analytic)
	// Under faults the execution legitimately diverges from the fault-free
	// plan cost, so the cross-check only applies to clean runs.
	if sc.Empty() && !rep.TotalCost().ApproxEqual(analytic, 1e-3) {
		fmt.Fprintf(w, "WARNING: simulated and analytic costs disagree\n")
	}

	if o.repairPolicy != "" {
		if sc.Empty() {
			return fmt.Errorf("-repair needs a fault scenario (-faults or -fault-seed)")
		}
		pol, err := repair.ParsePolicy(o.repairPolicy)
		if err != nil {
			return err
		}
		res, err := repair.Repair(model, sched, sc, repair.Options{Policy: pol})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "repair(%v)   repaired %d/%d impacted (cache %d, vw %d), missed %d\n",
			pol, res.Repaired, res.Impacted, res.FromCache, res.FromVW, len(res.Missed))
		for _, ms := range res.Missed {
			fmt.Fprintf(w, "  lost: video %d user %d at %v: %s\n", ms.Video, ms.User, ms.Start, ms.Reason)
		}
		fmt.Fprintf(w, "  cost %v -> %v (delta %v vs fault-free Ψ)\n", res.CostBefore, res.CostAfter, res.Delta())
		fmt.Fprintf(w, "  degraded cache: %d copies, hit rate %.1f%%\n", res.Copies, res.HitRatePct)
		if o.repairOut != "" {
			if err := cli.SaveJSON(o.repairOut, res.Schedule); err != nil {
				return err
			}
		}
	}

	if o.verbose {
		fmt.Fprintln(w, "links:")
		for _, lu := range rep.Links {
			e := topo.Edge(lu.Edge)
			fmt.Fprintf(w, "  %s--%s  %v  peak %d streams (%v)\n",
				topo.Node(e.A).Name, topo.Node(e.B).Name, lu.Bytes, lu.PeakStreams, lu.PeakRate)
		}
		fmt.Fprintln(w, "storages:")
		for _, nu := range rep.Nodes {
			fmt.Fprintf(w, "  %-6s peak %.2f GB, %.3g GB·h\n",
				topo.Node(nu.Node).Name, nu.PeakReserved/1e9, nu.ByteSeconds/1e9/3600)
		}
	}
	if o.auditRun {
		if o.reqPath == "" {
			return fmt.Errorf("-audit needs -requests (coverage is part of the audit)")
		}
		arep := audit.Run(model, sched, reqs)
		fmt.Fprintf(w, "audit             %d finding(s)\n", len(arep.Findings))
		for _, fd := range arep.Findings {
			fmt.Fprintf(w, "  %v\n", fd)
		}
		if !arep.OK() {
			return fmt.Errorf("audit failed with %d finding(s)", len(arep.Findings))
		}
	}
	if !rep.OK() {
		return fmt.Errorf("%d violations", len(rep.Violations))
	}
	return nil
}

// loadScenario reads a fault scenario JSON file.
func loadScenario(path string) (*faults.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	return faults.Decode(f)
}
