package experiment

import (
	"fmt"

	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

// LocalitySweep holds the x values for FigLocality.
var LocalitySweep = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// FigLocality is an extension sweep over regional taste variation
// (workload.Config.Locality): 0 means every neighborhood shares the global
// Zipf ranking, 1 means each neighborhood permutes it independently.
// Shared rankings let one cached copy at a hub serve several neighborhoods;
// decorrelated tastes fragment that sharing, so total cost rises with
// locality while the no-cache baseline stays flat.
func FigLocality(base testutil.Params, repeats, parallelism int) (*Figure, error) {
	base = base.WithDefaults()
	fig := &Figure{
		ID:     "fig-locality",
		Title:  "Regional taste variation vs total service cost (extension)",
		XLabel: "locality (0 = shared ranking, 1 = independent per neighborhood)",
		YLabel: "total service cost ($)",
	}
	var ps []testutil.Params
	for _, loc := range LocalitySweep {
		p := base
		p.Locality = loc
		ps = append(ps, p)
	}
	results, err := RunAveraged(ps, repeats, parallelism)
	if err != nil {
		return nil, err
	}
	with := stats.Series{Name: fmt.Sprintf("two-phase scheduler (alpha=%g)", base.Alpha)}
	direct := stats.Series{Name: "direct only"}
	for i, loc := range LocalitySweep {
		with.Add(loc, float64(results[i].FinalCost))
		direct.Add(loc, float64(results[i].DirectCost))
	}
	fig.Series = append(fig.Series, with, direct)
	return fig, nil
}
