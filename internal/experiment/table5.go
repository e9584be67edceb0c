package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

// Table5Config parameterizes the heat-metric study of Experiment 4: the
// full cross product of the Table 4 parameter values. Empty slices take
// the paper's values.
type Table5Config struct {
	Base        testutil.Params
	SRates      []float64 // default {3..8} $/GB·h
	Capacities  []float64 // default {5, 8, 11, 14} GB
	NRates      []float64 // default {300..1000} $/GB
	Alphas      []float64 // default {0.1, 0.271, 0.5, 0.7}
	Parallelism int
}

// CaseResult is the outcome of one configuration under all four metrics.
type CaseResult struct {
	Params     testutil.Params
	Phase1Cost float64
	Overflows  int
	// FinalCost[m] is Ψ(S_SORP) under metric m (indices 1..4 used).
	FinalCost [5]float64
	// Resolved is false when phase 1 produced no overflow (the paper's
	// "overflow free schedule at the individual scheduling phase").
	Resolved bool
}

// Table5Result aggregates the study like the paper's Table 5.
type Table5Result struct {
	Cases []CaseResult
	// TotalCases is the number of parameter combinations examined.
	TotalCases int
	// CostAffected counts combinations where overflow resolution changed
	// the schedule cost (the paper's "ΔCost by overflow resolution": 622
	// of 785).
	CostAffected int
	// Best[m] counts cost-affected combinations where metric m achieved
	// the minimum final cost (ties count for every tied metric, which is
	// why the paper's 63% + 70% exceeds 100%).
	Best [5]int
	// Best2or4 counts combinations where Method 2 or Method 4 achieved
	// the minimum (the paper reports 98%).
	Best2or4 int
	// DeltaPct summarizes 100·(Ψ(S_SORP)−Ψ(S))/Ψ(S) over cost-affected
	// cases under Method 4 (the paper: 12% average, 34% worst).
	DeltaPct stats.Summary
}

// BestPct returns Best[m] as a percentage of cost-affected cases.
func (t *Table5Result) BestPct(m sorp.HeatMetric) float64 {
	return stats.Percent(float64(t.Best[m]), float64(t.CostAffected))
}

// Best2or4Pct returns the percentage of cost-affected cases where Method 2
// or Method 4 won.
func (t *Table5Result) Best2or4Pct() float64 {
	return stats.Percent(float64(t.Best2or4), float64(t.CostAffected))
}

func (c Table5Config) withDefaults() Table5Config {
	if len(c.SRates) == 0 {
		c.SRates = SRateSweep
	}
	if len(c.Capacities) == 0 {
		c.Capacities = CapacitySweep
	}
	if len(c.NRates) == 0 {
		c.NRates = NRateSweep
	}
	if len(c.Alphas) == 0 {
		c.Alphas = AlphaSweep
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// metrics under comparison (indices into CaseResult.FinalCost).
var allMetrics = []sorp.HeatMetric{sorp.Period, sorp.PeriodPerCost, sorp.Space, sorp.SpacePerCost}

// RunTable5 executes the heat-metric study. Phase 1 runs once per
// configuration; each of the four metrics then resolves the same
// integrated schedule.
func RunTable5(cfg Table5Config) (*Table5Result, error) {
	cfg = cfg.withDefaults()
	var ps []testutil.Params
	for _, sr := range cfg.SRates {
		for _, cap := range cfg.Capacities {
			for _, nr := range cfg.NRates {
				for _, a := range cfg.Alphas {
					p := cfg.Base
					p.SRateGBHour, p.CapacityGB, p.NRateGB, p.Alpha = sr, cap, nr, a
					ps = append(ps, p.WithDefaults())
				}
			}
		}
	}

	cases := make([]CaseResult, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	for i := range ps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cases[i], errs[i] = runCase(ps[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Table5Result{Cases: cases, TotalCases: len(cases)}
	var deltas []float64
	const relEps = 1e-9
	for _, c := range cases {
		if !c.Resolved {
			continue
		}
		affected := false
		minCost := math.Inf(1)
		for _, m := range allMetrics {
			if math.Abs(c.FinalCost[m]-c.Phase1Cost) > relEps*c.Phase1Cost {
				affected = true
			}
			if c.FinalCost[m] < minCost {
				minCost = c.FinalCost[m]
			}
		}
		if !affected {
			continue
		}
		res.CostAffected++
		wins := [5]bool{}
		for _, m := range allMetrics {
			if c.FinalCost[m] <= minCost*(1+relEps) {
				res.Best[m]++
				wins[m] = true
			}
		}
		if wins[sorp.PeriodPerCost] || wins[sorp.SpacePerCost] {
			res.Best2or4++
		}
		deltas = append(deltas, stats.Percent(c.FinalCost[sorp.SpacePerCost]-c.Phase1Cost, c.Phase1Cost))
	}
	res.DeltaPct = stats.Summarize(deltas)
	return res, nil
}

func runCase(p testutil.Params) (CaseResult, error) {
	env, err := testutil.Build(p)
	if err != nil {
		return CaseResult{}, err
	}
	raw, err := scheduler.Run(env.Model, env.Requests, scheduler.Config{SkipResolution: true})
	if err != nil {
		return CaseResult{}, fmt.Errorf("experiment: table5 %v: %w", p, err)
	}
	out := CaseResult{
		Params:     p,
		Phase1Cost: float64(raw.Phase1Cost),
		Overflows:  raw.Overflows,
		Resolved:   raw.Overflows > 0,
	}
	if !out.Resolved {
		for _, m := range allMetrics {
			out.FinalCost[m] = out.Phase1Cost
		}
		return out, nil
	}
	parts := env.Requests.ByVideo()
	for _, m := range allMetrics {
		r, err := sorp.Resolve(env.Model, raw.Schedule, parts, sorp.Options{Metric: m})
		if err != nil {
			return CaseResult{}, fmt.Errorf("experiment: table5 %v metric %v: %w", p, m, err)
		}
		out.FinalCost[m] = float64(r.CostAfter)
	}
	return out, nil
}
