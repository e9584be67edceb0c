package gateway

import (
	"context"
	"net/http"
	"sync"

	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/units"
)

// The merged plan: shards partition the reservation stream, not the
// catalog, so two shards may both have scheduled copies of one title.
// Merging a file therefore concatenates record lists and rebases every
// index-valued cross-reference by the receiving file's offsets.

// MergeSchedules unions per-shard committed schedules into one global
// schedule. Parts are merged in the order given, so the result is
// deterministic in shard order; sentinel references (NoResidency,
// PrePlacedFeed) are preserved. The inputs are not mutated.
func MergeSchedules(parts ...*schedule.Schedule) *schedule.Schedule {
	out := schedule.New()
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, vid := range p.VideoIDs() {
			mergeFile(out, p.Files[vid])
		}
	}
	return out
}

func mergeFile(dst *schedule.Schedule, fs *schedule.FileSchedule) {
	cur := dst.File(fs.Video)
	if cur == nil {
		dst.Put(fs.Clone())
		return
	}
	dOff, rOff := len(cur.Deliveries), len(cur.Residencies)
	for _, d := range fs.Deliveries {
		d.Route = d.Route.Clone()
		if d.SourceResidency != schedule.NoResidency {
			d.SourceResidency += rOff
		}
		cur.Deliveries = append(cur.Deliveries, d)
	}
	for _, c := range fs.Residencies {
		services := make([]int, len(c.Services))
		for i, s := range c.Services {
			services[i] = s + dOff
		}
		c.Services = services
		if c.FedBy != schedule.PrePlacedFeed {
			c.FedBy += dOff
		}
		cur.Residencies = append(cur.Residencies, c)
	}
}

// ShardPlan is one shard's slice of the gateway's GET /v1/plan reply.
type ShardPlan struct {
	Shard   string       `json:"shard"`
	Epoch   int          `json:"epoch"`
	Horizon simtime.Time `json:"horizon"`
	Pending int          `json:"pending"`
	Cost    units.Money  `json:"cost"`
}

// PlanResponse is the gateway's GET /v1/plan reply: the merged global
// schedule with the same top-level shape a single server answers
// (Horizon is the slowest shard's commit horizon, Epoch the largest
// shard epoch, Pending and Cost tier totals — Ψ is additive across the
// partition), plus the per-shard breakdown.
type PlanResponse struct {
	Schedule *schedule.Schedule `json:"schedule"`
	Horizon  simtime.Time       `json:"horizon"`
	Epoch    int                `json:"epoch"`
	Pending  int                `json:"pending"`
	Cost     units.Money        `json:"cost"`
	Shards   []ShardPlan        `json:"shards"`
}

func (g *Gateway) handlePlan(w http.ResponseWriter, r *http.Request) {
	res, sh, err := g.planAll(r.Context())
	if err != nil {
		writeUpstreamErr(w, sh, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, res)
}

// planAll fetches every shard's plan concurrently and merges them. On
// failure it returns the offending shard.
func (g *Gateway) planAll(ctx context.Context) (PlanResponse, *shard, error) {
	plans := make([]server.PlanResponse, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, sh := range g.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sh.outstanding.Add(1)
			defer sh.outstanding.Add(-1)
			errs[i] = g.forward(ctx, sh, func(base string) error {
				return retryhttp.GetJSON(ctx, g.retry, base+"/v1/plan", &plans[i])
			})
		}(i, sh)
	}
	wg.Wait()
	var out PlanResponse
	parts := make([]*schedule.Schedule, len(g.shards))
	for i, err := range errs {
		if err != nil {
			return out, g.shards[i], err
		}
		p := plans[i]
		parts[i] = p.Schedule
		if i == 0 || p.Horizon < out.Horizon {
			out.Horizon = p.Horizon
		}
		if p.Epoch > out.Epoch {
			out.Epoch = p.Epoch
		}
		out.Pending += p.Pending
		out.Cost += p.Cost
		out.Shards = append(out.Shards, ShardPlan{
			Shard: g.shards[i].id, Epoch: p.Epoch, Horizon: p.Horizon,
			Pending: p.Pending, Cost: p.Cost,
		})
	}
	out.Schedule = MergeSchedules(parts...)
	return out, nil, nil
}
