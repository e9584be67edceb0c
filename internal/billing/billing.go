// Package billing attributes a schedule's total cost Ψ(S) to the
// individual reservations it serves. The paper motivates cost modeling
// with the operator's pricing problem (§1.2 cites the network-pricing
// literature; §2.2: "how much user has to pay for the service?"); this
// package answers it with an exact marginal attribution:
//
//   - every delivery's network cost is billed to its own request;
//   - every residency's storage cost is split across the services reading
//     it by marginal extension: served chronologically, service k pays
//     Ψc(Δ_k) − Ψc(Δ_{k−1}) where Δ_k is the caching span after its
//     service. The increments telescope to the residency's full cost, so
//     the statement always sums to Ψ(S) exactly.
//
// Marginal attribution mirrors the greedy's own decision rule — each user
// pays exactly the extension cost their service added — so a user is never
// billed more than the direct-from-warehouse stream they would otherwise
// have received (the greedy only chose the cached source because it was
// cheaper).
package billing

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// Line is one reservation's invoice.
type Line struct {
	User    topology.UserID
	Video   media.VideoID
	Start   simtime.Time
	Network units.Money
	Storage units.Money
}

// Total returns the line's charge.
func (l Line) Total() units.Money { return l.Network + l.Storage }

// Statement is the full billing run over one schedule.
type Statement struct {
	Lines   []Line
	Network units.Money
	Storage units.Money
	// Infrastructure is the operator-borne cost of pre-placed standing
	// copies (bulk pre-loads plus their full-span storage bookings). Users
	// reading a standing copy pay zero marginal storage — the copy was
	// bought up front.
	Infrastructure units.Money
}

// Total returns the statement's grand total (equal to Ψ(S)).
func (s *Statement) Total() units.Money { return s.Network + s.Storage + s.Infrastructure }

// Attribute bills the schedule's cost to its reservations.
func Attribute(m *cost.Model, s *schedule.Schedule) (*Statement, error) {
	st := &Statement{}
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		v := m.Catalog().Video(vid)
		lines := make([]Line, len(fs.Deliveries))
		for i, d := range fs.Deliveries {
			lines[i] = Line{
				User:    d.User,
				Video:   vid,
				Start:   d.Start,
				Network: m.DeliveryCost(d),
			}
			st.Network += lines[i].Network
		}
		readers := fs.Readers()
		for j, c := range fs.Residencies {
			if c.FedBy == schedule.PrePlacedFeed {
				// Standing copy: operator-borne, already committed before
				// the cycle. Its readers pay zero marginal storage.
				st.Infrastructure += m.ResidencyCost(c) + m.PrePlacementCost(c)
				continue
			}
			if len(readers[j]) == 0 {
				// A rolling-horizon commit can leave one legitimately: a
				// frozen copy whose only readers lay beyond the horizon is
				// clipped to zero span, and overflow resolution may then
				// re-plan those readers elsewhere (frozen records are never
				// pruned). It books exactly nothing, so there is nothing to
				// attribute; ValidateStructure refuses a reader-less
				// stream-fed copy that costs money, so only an unvalidated
				// schedule holds one.
				if m.ResidencyCost(c) == 0 {
					continue
				}
				return nil, fmt.Errorf("billing: residency %d of video %d serves nobody", j, vid)
			}
			// Marginal split: services in chronological order; each pays
			// the span-cost increment its service caused.
			order := readers[j]
			sort.Slice(order, func(a, b int) bool {
				da, db := fs.Deliveries[order[a]], fs.Deliveries[order[b]]
				if da.Start != db.Start {
					return da.Start < db.Start
				}
				return order[a] < order[b]
			})
			srate := m.Book().SRate(c.Loc)
			prev := simtime.Duration(0)
			prevCost := units.Money(0)
			for _, di := range order {
				span := fs.Deliveries[di].Start.Sub(c.Load)
				if span < prev {
					span = prev
				}
				cCost := cost.SpanCost(srate, v.Size, v.Playback, span)
				lines[di].Storage += cCost - prevCost
				st.Storage += cCost - prevCost
				prev, prevCost = span, cCost
			}
			// Telescoped total must equal the residency's booked cost; a
			// mismatch means the schedule's LastService is inconsistent.
			if booked := m.ResidencyCost(c); !prevCost.ApproxEqual(booked, 1e-6*(1+float64(booked))) {
				return nil, fmt.Errorf("billing: residency %d of video %d attribution %v != booked %v",
					j, vid, prevCost, booked)
			}
		}
		st.Lines = append(st.Lines, lines...)
	}
	sort.Slice(st.Lines, func(a, b int) bool {
		if st.Lines[a].Start != st.Lines[b].Start {
			return st.Lines[a].Start < st.Lines[b].Start
		}
		return st.Lines[a].User < st.Lines[b].User
	})
	return st, nil
}

// Write renders the statement as an aligned text invoice.
func (s *Statement) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %-10s %-14s %-14s %s\n", "user", "video", "start", "network", "storage", "total")
	for _, l := range s.Lines {
		fmt.Fprintf(&b, "%-6d %-6d %-10s %-14s %-14s %s\n",
			l.User, l.Video, l.Start, l.Network, l.Storage, l.Total())
	}
	if s.Infrastructure != 0 {
		fmt.Fprintf(&b, "INFRA  pre-placed copies (operator-borne): %v\n", s.Infrastructure)
	}
	fmt.Fprintf(&b, "TOTAL  network %v + storage %v + infra %v = %v\n",
		s.Network, s.Storage, s.Infrastructure, s.Total())
	_, err := io.WriteString(w, b.String())
	return err
}
