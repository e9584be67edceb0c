package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"

	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/schedule"
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

// rawValue is json.RawMessage without the copy: it aliases the bytes being
// decoded, here a pooled reply buffer, so whoever keeps it past the decode
// clones it first.
type rawValue []byte

func (v *rawValue) UnmarshalJSON(b []byte) error { *v = b; return nil }

// shardSchedule is the schedule value of a shard's last /v1/plan reply: its
// bytes as the shard sent them and what they decode to (nil for null).
// Immutable once published; the schedule is only ever read, by
// MergeSchedules.
type shardSchedule struct {
	raw   []byte
	sched *schedule.Schedule
}

// mergedPlan is the merged schedule's encoding beside the shard schedules it
// was merged from, in shard order. Immutable once published; blob is never
// written again, so a reply in flight across a commit finishes with the
// bytes it started with.
type mergedPlan struct {
	from []*shardSchedule
	blob []byte
}

// PlanStats counts the plan path's work since start: reads answered or
// attempted, shard schedules decoded because their bytes differed from the
// kept ones (summed over shards), and merged plans built and encoded. With
// no commit between reads only Reads moves.
type PlanStats struct {
	Reads        uint64 `json:"reads"`
	ShardDecodes uint64 `json:"shard_decodes"`
	Merges       uint64 `json:"merges"`
}

// handlePlan answers json.Marshal(PlanResponse) plus a newline, byte for
// byte, at the cost of what changed since the last read: a shard's schedule
// is decoded when its bytes differ from the last ones that shard sent
// (keepSchedule), the union is merged and encoded when some shard's schedule
// was replaced (mergedSchedule), and the rest is the few fields that move
// with every reservation. Nothing is invalidated: the validators are the
// bytes and the pointers themselves, so a promoted standby serving the same
// plan is a hit and a shard back with another plan under the same epoch is a
// miss.
func (g *Gateway) handlePlan(w http.ResponseWriter, r *http.Request) {
	g.planReads.Add(1)
	from, rest, sh, err := g.fetchPlans(r.Context())
	if err != nil {
		writeUpstreamErr(w, sh, err)
		return
	}
	sched := g.mergedSchedule(from)
	tail, err := json.Marshal(rest)
	if err != nil {
		log.Printf("gateway: cannot encode the plan: %v", err)
		httpkit.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("encode reply: %w", err))
		return
	}
	httpkit.WriteJSONParts(w, []byte(`{"schedule":`), sched, []byte(`,`), tail[1:], []byte("\n"))
}

// planRest is PlanResponse without the schedule, in its field order.
type planRest struct {
	Horizon simtime.Time `json:"horizon"`
	Epoch   int          `json:"epoch"`
	Pending int          `json:"pending"`
	Cost    units.Money  `json:"cost"`
	Shards  []ShardPlan  `json:"shards"`
}

// fetchPlans reads every shard's plan concurrently and sums the small
// fields. On failure it returns the offending shard.
func (g *Gateway) fetchPlans(ctx context.Context) ([]*shardSchedule, planRest, *shard, error) {
	from := make([]*shardSchedule, len(g.shards))
	rows := make([]ShardPlan, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, sh := range g.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sh.outstanding.Add(1)
			defer sh.outstanding.Add(-1)
			from[i], rows[i], errs[i] = g.fetchPlan(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	rest := planRest{Shards: rows}
	for i, err := range errs {
		if err != nil {
			return nil, planRest{}, g.shards[i], err
		}
		p := rows[i]
		if i == 0 || p.Horizon < rest.Horizon {
			rest.Horizon = p.Horizon
		}
		if p.Epoch > rest.Epoch {
			rest.Epoch = p.Epoch
		}
		rest.Pending += p.Pending
		rest.Cost += p.Cost
	}
	return from, rest, nil, nil
}

// fetchPlan reads one shard's plan. The reply is split, not decoded: the
// small fields into the shard's row, the schedule's bytes — still the reply
// buffer's — to keepSchedule. A failed read stores nothing.
func (g *Gateway) fetchPlan(ctx context.Context, sh *shard) (*shardSchedule, ShardPlan, error) {
	var kept *shardSchedule
	row := ShardPlan{Shard: sh.id}
	err := g.forward(ctx, sh, func(base string) error {
		return retryhttp.GetBody(ctx, g.retry, base+"/v1/plan", func(body []byte) error {
			var reply struct {
				Schedule rawValue     `json:"schedule"`
				Horizon  simtime.Time `json:"horizon"`
				Epoch    int          `json:"epoch"`
				Pending  int          `json:"pending"`
				Cost     units.Money  `json:"cost"`
			}
			err := json.Unmarshal(body, &reply)
			if err == nil {
				row.Epoch, row.Horizon, row.Pending, row.Cost = reply.Epoch, reply.Horizon, reply.Pending, reply.Cost
				kept, err = g.keepSchedule(sh, reply.Schedule)
			}
			return err
		})
	})
	return kept, row, err
}

// keepSchedule returns the holder of the schedule a shard just sent as raw.
// Bytes equal to the ones kept from its last reply stand for the schedule
// already decoded from them; different bytes are copied out of the reply
// buffer, decoded once and kept in their place. Readers that find a new
// schedule at the same instant may each decode it; the holder stored last
// serves the reads that follow.
func (g *Gateway) keepSchedule(sh *shard, raw []byte) (*shardSchedule, error) {
	if kept := sh.plan.Load(); kept != nil && bytes.Equal(kept.raw, raw) {
		return kept, nil
	}
	next := &shardSchedule{raw: bytes.Clone(raw)}
	if len(raw) > 0 { // an absent schedule is a null one
		if err := json.Unmarshal(next.raw, &next.sched); err != nil {
			return nil, fmt.Errorf("schedule: %w", err)
		}
	}
	g.planDecodes.Add(1)
	sh.plan.Store(next)
	return next, nil
}

// mergedSchedule returns json.Marshal(MergeSchedules(from...)), built at the
// first call for a tuple of shard schedules and kept for the later ones.
// Every holder in from is immutable and a changed shard schedule arrives in
// a new one, so the pointers say whether the kept bytes still are their
// merge. A new merge is encoded into a buffer of its own, sized from the
// last one's bytes with an eighth to spare.
func (g *Gateway) mergedSchedule(from []*shardSchedule) []byte {
	m := g.merged.Load()
	if m != nil && slices.Equal(m.from, from) {
		return m.blob
	}
	var last int
	if m != nil {
		last = len(m.blob)
	}
	parts := make([]*schedule.Schedule, len(from))
	for i, k := range from {
		parts[i] = k.sched
	}
	blob := MergeSchedules(parts...).AppendJSON(make([]byte, 0, last+last/8))
	g.planMerges.Add(1)
	g.merged.Store(&mergedPlan{from: from, blob: blob})
	return blob
}
