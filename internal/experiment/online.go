package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/vodsim/vsp/internal/online"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

// FigOnline is an extension beyond the paper's own figures: it quantifies
// the value of Video-On-Reservation batch knowledge by comparing, across
// access-pattern skews, the offline two-phase scheduler against a reactive
// online system (nearest-copy service with LRU caches) and the no-cache
// direct baseline. The paper motivates VOR with this comparison in prose
// (§1); this sweep puts numbers on it.
func FigOnline(base testutil.Params, repeats, parallelism int) (*Figure, error) {
	base = base.WithDefaults()
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	fig := &Figure{
		ID:     "fig-online",
		Title:  "Value of reservation foreknowledge: offline two-phase vs online LRU vs direct (extension)",
		XLabel: "alpha value of zipf distribution",
		YLabel: "total service cost ($)",
	}

	type point struct {
		offline, online, direct float64
	}
	pts := make([]point, len(AlphaWide))
	errs := make([]error, len(AlphaWide))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i, a := range AlphaWide {
		wg.Add(1)
		go func(i int, alpha float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for r := 0; r < maxInt(1, repeats); r++ {
				p := base
				p.Alpha = alpha
				p.Seed = base.Seed + int64(r)*104729
				env, err := testutil.Build(p)
				if err != nil {
					errs[i] = err
					return
				}
				off, err := scheduler.Run(env.Model, env.Requests, scheduler.Config{})
				if err != nil {
					errs[i] = fmt.Errorf("experiment: online sweep offline leg: %w", err)
					return
				}
				on, err := online.Run(env.Model, env.Requests)
				if err != nil {
					errs[i] = fmt.Errorf("experiment: online sweep online leg: %w", err)
					return
				}
				direct, err := scheduler.RunDirect(env.Model, env.Requests)
				if err != nil {
					errs[i] = err
					return
				}
				pts[i].offline += float64(off.FinalCost)
				pts[i].online += float64(on.TotalCost())
				pts[i].direct += float64(direct.FinalCost)
			}
			k := float64(maxInt(1, repeats))
			pts[i].offline /= k
			pts[i].online /= k
			pts[i].direct /= k
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	offline := stats.Series{Name: "offline two-phase (VOR)"}
	onl := stats.Series{Name: "online LRU (reactive)"}
	direct := stats.Series{Name: "direct only"}
	for i, a := range AlphaWide {
		offline.Add(a, pts[i].offline)
		onl.Add(a, pts[i].online)
		direct.Add(a, pts[i].direct)
	}
	fig.Series = append(fig.Series, offline, onl, direct)
	return fig, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
