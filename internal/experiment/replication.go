package experiment

import (
	"context"
	"fmt"

	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/placement"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

// FigReplication is an extension sweep comparing caching architectures
// across access-pattern skew:
//
//	direct            no caching at all (the paper's network-only system)
//	static            pre-placed standing copies only (strategic
//	                  replication, the paper's companion work [16])
//	dynamic           the paper's two-phase scheduler
//	dynamic+static    both combined
//
// The sweep quantifies the repository's placement finding: dynamic
// en-route caching dominates static replication under this cost model,
// and combining them adds the standing copies' committed cost without
// recovering it. PreloadFactor sets the off-peak bulk tariff for the
// static legs.
func FigReplication(base testutil.Params, preloadFactor float64, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	repeats = max(1, repeats)
	if preloadFactor <= 0 {
		preloadFactor = 0.25
	}
	fig := &Figure{
		ID:     "fig-replication",
		Title:  "Caching architectures across access skew (extension)",
		XLabel: "alpha value of zipf distribution",
		YLabel: "total service cost ($)",
	}

	type point struct{ direct, static, dynamic, both float64 }
	pts := make([]point, len(AlphaWide))
	errs := make([]error, len(AlphaWide))
	parallel.Do(context.Background(), len(AlphaWide), func(i int) {
		alpha := AlphaWide[i]
		for rpt := 0; rpt < repeats; rpt++ {
			p := base
			p.Alpha = alpha
			p.Seed = base.Seed + int64(rpt)*104729
			env, err := testutil.Build(p)
			if err != nil {
				errs[i] = err
				return
			}
			if err := env.Book.SetPreloadFactor(preloadFactor); err != nil {
				errs[i] = err
				return
			}
			plan, err := placement.Build(env.Model, placement.Config{
				Alpha:           alpha,
				RequestsPerUser: p.RequestsPerUser,
				// At the paper's 5 GB storages the default 50% budget
				// cannot hold one ~3.3 GB title; let the static legs
				// use most of the disk (dynamic legs keep their own
				// capacity checks).
				CapacityFraction: 0.8,
			})
			if err != nil {
				errs[i] = fmt.Errorf("experiment: replication plan: %w", err)
				return
			}
			seeds := plan.Seeds()

			runs := []struct {
				out *float64
				cfg scheduler.Config
			}{
				{&pts[i].direct, scheduler.Config{Policy: ivs.NoCaching}},
				{&pts[i].static, scheduler.Config{Policy: ivs.NoCaching, Seeds: seeds}},
				{&pts[i].dynamic, scheduler.Config{}},
				{&pts[i].both, scheduler.Config{Seeds: seeds}},
			}
			for _, rn := range runs {
				out, err := scheduler.Run(env.Model, env.Requests, rn.cfg)
				if err != nil {
					errs[i] = fmt.Errorf("experiment: replication leg: %w", err)
					return
				}
				*rn.out += float64(out.FinalCost)
			}
		}
		k := float64(repeats)
		pts[i].direct /= k
		pts[i].static /= k
		pts[i].dynamic /= k
		pts[i].both /= k
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	series := []struct {
		name string
		get  func(point) float64
	}{
		{"dynamic (two-phase)", func(p point) float64 { return p.dynamic }},
		{"dynamic + static", func(p point) float64 { return p.both }},
		{"static replication only", func(p point) float64 { return p.static }},
		{"direct only", func(p point) float64 { return p.direct }},
	}
	for _, sp := range series {
		s := stats.Series{Name: sp.name}
		for i, a := range AlphaWide {
			s.Add(a, sp.get(pts[i]))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
