// Package experiment regenerates every figure and table of the paper's
// evaluation (§5): the effect of the network charging rate (Figs. 5–6), of
// the storage charging rate (Figs. 7–8), of the access pattern and storage
// size (Fig. 9), and the heat-metric comparison across the full parameter
// cross product (Table 5 and the §5.5 cost-increase statistics).
//
// Every configuration is a testutil.Params and every environment a
// testutil.Build of it; the calibration notes live with them, in package
// testutil.
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
)

// Result is the outcome of scheduling one configuration.
type Result struct {
	Params     testutil.Params
	Phase1Cost units.Money
	FinalCost  units.Money
	DirectCost units.Money
	Overflows  int
	Victims    int
	Requests   int
}

// DeltaPct returns 100·(Ψ(S_SORP) − Ψ(S))/Ψ(S), the §5.5 statistic.
func (r Result) DeltaPct() float64 {
	if r.Phase1Cost == 0 {
		return 0
	}
	return 100 * float64(r.FinalCost-r.Phase1Cost) / float64(r.Phase1Cost)
}

// SavingsPct returns the percentage saved versus the network-only system.
func (r Result) SavingsPct() float64 {
	if r.DirectCost == 0 {
		return 0
	}
	return 100 * float64(r.DirectCost-r.FinalCost) / float64(r.DirectCost)
}

// RunOne builds and schedules one configuration, including the
// network-only baseline.
func RunOne(p testutil.Params) (Result, error) {
	env, err := testutil.Build(p)
	if err != nil {
		return Result{}, err
	}
	out, err := scheduler.Run(env.Model, env.Requests, scheduler.Config{})
	if err != nil {
		return Result{}, fmt.Errorf("experiment: %v: %w", p, err)
	}
	direct, err := scheduler.RunDirect(env.Model, env.Requests)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Params:     env.Params,
		Phase1Cost: out.Phase1Cost,
		FinalCost:  out.FinalCost,
		DirectCost: direct.FinalCost,
		Overflows:  out.Overflows,
		Victims:    len(out.Victims),
		Requests:   len(env.Requests),
	}, nil
}

// RunAveraged runs each configuration `repeats` times under decorrelated
// seeds and returns the per-configuration mean of every cost metric, in
// input order. The paper's curves are single draws of a 190-request
// workload; averaging removes the sampling jitter so the reported shapes
// are the distributional ones.
func RunAveraged(ps []testutil.Params, repeats, parallelism int) ([]Result, error) {
	if repeats <= 1 {
		return RunMany(ps, parallelism)
	}
	all := make([]testutil.Params, 0, len(ps)*repeats)
	for r := 0; r < repeats; r++ {
		for _, p := range ps {
			q := p.WithDefaults()
			q.Seed += int64(r) * 104729
			all = append(all, q)
		}
	}
	raw, err := RunMany(all, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(ps))
	for i := range ps {
		acc := Result{Params: ps[i].WithDefaults()}
		for r := 0; r < repeats; r++ {
			got := raw[r*len(ps)+i]
			acc.Phase1Cost += got.Phase1Cost
			acc.FinalCost += got.FinalCost
			acc.DirectCost += got.DirectCost
			acc.Overflows += got.Overflows
			acc.Victims += got.Victims
			acc.Requests += got.Requests
		}
		k := units.Money(repeats)
		acc.Phase1Cost /= k
		acc.FinalCost /= k
		acc.DirectCost /= k
		acc.Overflows /= repeats
		acc.Victims /= repeats
		acc.Requests /= repeats
		out[i] = acc
	}
	return out, nil
}

// RunMany schedules the configurations concurrently (bounded by
// parallelism; <= 0 means GOMAXPROCS) and returns results in input order.
func RunMany(ps []testutil.Params, parallelism int) ([]Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i := range ps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = RunOne(ps[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
