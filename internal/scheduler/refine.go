package scheduler

import (
	"context"
	"fmt"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// refineResult reports an improvement-sweep run.
type refineResult struct {
	passes  int
	moved   int // files whose schedule improved
	savings units.Money
}

// refinePasses bounds the improvement sweep.
const refinePasses = 10

// refine runs an iterative-improvement sweep over the resolved schedule:
// each file is rescheduled with the capacity-aware greedy against the
// other files' actual disk usage, and the new schedule is kept when it is
// strictly cheaper. Passes repeat until a fixpoint.
//
// This goes beyond the paper's two phases (the paper stops at overflow
// resolution) and addresses the suboptimality it acknowledges: phase-1
// schedules are computed in isolation and in a fixed order, so after
// integration there is often slack — a file rescheduled against the real
// residual capacity can undercut its phase-1 plan. Cost strictly
// decreases every accepted move, so the sweep terminates.
func refine(ctx context.Context, m *cost.Model, s *schedule.Schedule, parts map[media.VideoID][]workload.Request,
	frozen map[media.VideoID]*schedule.FileSchedule, cfg Config, ws *ivs.Workspace) (refineResult, error) {

	topo := m.Book().Topology()
	ledger := occupancy.FromSchedule(topo, m.Catalog(), s)
	ledger.UseWorkspace(ws.Occupancy())
	var res refineResult
	const eps = 1e-9

	for pass := 0; pass < refinePasses; pass++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("scheduler: refine aborted: %w", err)
		}
		improved := false
		for _, vid := range s.VideoIDs() {
			cur := s.Files[vid]
			curCost := m.FileCost(cur)
			tmp := ledger.OverlayWithout(vid)
			cand, err := ivs.ScheduleFile(m, vid, parts[vid], ivs.Options{
				Policy:    cfg.Policy,
				Ledger:    tmp,
				Seeds:     cfg.Seeds[vid],
				Frozen:    frozen[vid],
				Workspace: ws,
			})
			if err != nil {
				return res, fmt.Errorf("scheduler: refine video %d: %w", vid, err)
			}
			candCost := m.FileCost(cand)
			if candCost < curCost-eps {
				s.Put(cand)
				ledger.CommitFile(cand)
				res.moved++
				res.savings += curCost - candCost
				improved = true
			} else {
				ws.Recycle(cand)
			}
			tmp.Release()
		}
		if !improved {
			break
		}
		res.passes++
	}
	return res, nil
}
