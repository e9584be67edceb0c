// Package optimal computes exact minimum-cost schedules for small request
// sets by exhaustive search, providing the reference point for the paper's
// empirical claim that the heuristic stays "within the bound of 30% from
// the optimal solution on the average" (§5.5).
//
// The search is exact within the cheapest-route policy class: streams
// follow minimum-rate routes from their supply point to the destination
// (deliberately detouring a stream to seed a cache on an off-route node is
// outside the class, for both the heuristic and this reference), caches may
// open at any storage a stream touches, and capacity is unconstrained —
// the same assumptions as the individual video scheduling phase. Within
// that class every choice sequence is enumerated with branch-and-bound.
package optimal

import (
	"fmt"
	"math"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// MaxRequests bounds the exhaustive search; the branching factor is
// 1 + #copies and copies multiply with every served request, so the search
// is exponential in the request count.
const MaxRequests = 7

// copyState is one live cached copy during the search.
type copyState struct {
	loc  topology.NodeID
	load simtime.Time
	last simtime.Time
}

// choice encodes one request's supply decision: -1 for the warehouse,
// otherwise an index into the copy list at that point of the search.
type choice = int

const fromWarehouse choice = -1

type searcher struct {
	m        *cost.Model
	topo     *topology.Topology
	video    media.Video
	reqs     []workload.Request
	dsts     []topology.NodeID
	bestCost units.Money
	bestSeq  []choice
	seq      []choice
	copies   []copyState
}

// ScheduleFile exhaustively finds the minimum-cost schedule for one file's
// requests (at most MaxRequests of them). It returns the schedule and its
// exact cost.
func ScheduleFile(m *cost.Model, video media.VideoID, reqs []workload.Request) (*schedule.FileSchedule, units.Money, error) {
	if len(reqs) > MaxRequests {
		return nil, 0, fmt.Errorf("optimal: %d requests exceed the exhaustive-search bound %d", len(reqs), MaxRequests)
	}
	topo := m.Book().Topology()
	ordered := append([]workload.Request(nil), reqs...)
	workload.SortChronological(ordered)
	for _, r := range ordered {
		if r.Video != video {
			return nil, 0, fmt.Errorf("optimal: request for video %d in batch for %d", r.Video, video)
		}
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			return nil, 0, fmt.Errorf("optimal: unknown user %d", r.User)
		}
	}
	s := &searcher{
		m:        m,
		topo:     topo,
		video:    m.Catalog().Video(video),
		reqs:     ordered,
		bestCost: units.Money(math.Inf(1)),
		seq:      make([]choice, len(ordered)),
	}
	s.dsts = make([]topology.NodeID, len(ordered))
	for i, r := range ordered {
		s.dsts[i] = topo.User(r.User).Local
	}
	s.dfs(0, 0)
	if math.IsInf(float64(s.bestCost), 1) && len(ordered) > 0 {
		return nil, 0, fmt.Errorf("optimal: no feasible schedule found")
	}
	fs, err := s.replay()
	if err != nil {
		return nil, 0, err
	}
	got := m.FileCost(fs)
	if !got.ApproxEqual(s.bestCost, 1e-6*(1+math.Abs(float64(s.bestCost)))) {
		return nil, 0, fmt.Errorf("optimal: replay cost %v disagrees with search cost %v", got, s.bestCost)
	}
	return fs, got, nil
}

// dfs explores supply choices for request i with the accumulated cost so
// far, pruning branches that already exceed the best complete schedule.
func (s *searcher) dfs(i int, acc units.Money) {
	if acc >= s.bestCost {
		return
	}
	if i == len(s.reqs) {
		s.bestCost = acc
		s.bestSeq = append(s.bestSeq[:0], s.seq[:i]...)
		return
	}
	t := s.reqs[i].Start
	dst := s.dsts[i]

	// Option: stream from the warehouse.
	s.seq[i] = fromWarehouse
	s.branch(i, acc+s.m.TransferCost(s.video.ID, s.topo.Warehouse(), dst), s.topo.Warehouse(), t, dst)

	// Option: extend an existing copy. Iterate by index; the copy list
	// only ever grows within a branch and is truncated on backtrack.
	nCopies := len(s.copies)
	for k := 0; k < nCopies; k++ {
		c := s.copies[k]
		if c.load > t {
			continue
		}
		extend := extendCost(s.m, s.video, c, t)
		transfer := s.m.TransferCost(s.video.ID, c.loc, dst)
		s.seq[i] = k
		prevLast := s.copies[k].last
		if t > s.copies[k].last {
			s.copies[k].last = t
		}
		s.branch(i, acc+extend+transfer, c.loc, t, dst)
		s.copies[k].last = prevLast
	}
}

// branch opens the post-serve copies along the stream's route and recurses.
func (s *searcher) branch(i int, acc units.Money, src topology.NodeID, t simtime.Time, dst topology.NodeID) {
	route, err := s.m.Table().Route(src, dst)
	if err != nil {
		return
	}
	added := 0
	for _, n := range route {
		if n == src || s.topo.Node(n).Kind != topology.KindStorage {
			continue
		}
		if s.hasCopy(n, t) {
			continue
		}
		s.copies = append(s.copies, copyState{loc: n, load: t, last: t})
		added++
	}
	s.dfs(i+1, acc)
	s.copies = s.copies[:len(s.copies)-added]
}

func (s *searcher) hasCopy(n topology.NodeID, load simtime.Time) bool {
	for _, c := range s.copies {
		if c.loc == n && c.load == load {
			return true
		}
	}
	return false
}

func extendCost(m *cost.Model, v media.Video, c copyState, t simtime.Time) units.Money {
	srate := m.Book().SRate(c.loc)
	oldCost := cost.SpanCost(srate, v.Size, v.Playback, c.last.Sub(c.load))
	newCost := cost.SpanCost(srate, v.Size, v.Playback, t.Sub(c.load))
	if newCost < oldCost {
		return 0
	}
	return newCost - oldCost
}

// replay reconstructs the winning choice sequence as a FileSchedule by
// re-serving each request with its recorded supply decision. The copy list
// evolves exactly as in the search (same route-order copy creation), so
// the recorded indices resolve to the same copies.
func (s *searcher) replay() (*schedule.FileSchedule, error) {
	fs := &schedule.FileSchedule{Video: s.video.ID}
	type liveCopy struct {
		copyState
		residency int // index into fs.Residencies
	}
	var copies []liveCopy
	for i, r := range s.reqs {
		var src topology.NodeID
		srcRes := schedule.NoResidency
		ch := s.bestSeq[i]
		if ch == fromWarehouse {
			src = s.topo.Warehouse()
		} else {
			if ch < 0 || ch >= len(copies) {
				return nil, fmt.Errorf("optimal: replay choice %d out of range", ch)
			}
			src = copies[ch].loc
			srcRes = copies[ch].residency
		}
		route, err := s.m.Table().Route(src, s.dsts[i])
		if err != nil {
			return nil, err
		}
		di := len(fs.Deliveries)
		fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
			Video: s.video.ID, User: r.User, Start: r.Start,
			Route: route, SourceResidency: srcRes,
		})
		if srcRes != schedule.NoResidency {
			c := &fs.Residencies[srcRes]
			if r.Start > c.LastService {
				c.LastService = r.Start
			}
			if r.Start > copies[ch].last {
				copies[ch].last = r.Start
			}
		}
		for _, n := range route {
			if n == src || s.topo.Node(n).Kind != topology.KindStorage {
				continue
			}
			dup := false
			for _, c := range copies {
				if c.loc == n && c.load == r.Start {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			fs.Residencies = append(fs.Residencies, schedule.Residency{
				Video: s.video.ID, Loc: n, Src: src,
				Load: r.Start, LastService: r.Start, FedBy: di,
			})
			copies = append(copies, liveCopy{
				copyState: copyState{loc: n, load: r.Start, last: r.Start},
				residency: len(fs.Residencies) - 1,
			})
		}
	}
	pruneUnused(fs)
	return fs, nil
}

// pruneUnused removes residencies without services, as ivs does.
func pruneUnused(fs *schedule.FileSchedule) {
	readers := fs.Readers()
	remap := make([]int, len(fs.Residencies))
	kept := fs.Residencies[:0]
	for j := range fs.Residencies {
		if len(readers[j]) == 0 {
			remap[j] = -1
			continue
		}
		remap[j] = len(kept)
		kept = append(kept, fs.Residencies[j])
	}
	fs.Residencies = kept
	for i := range fs.Deliveries {
		if sr := fs.Deliveries[i].SourceResidency; sr != schedule.NoResidency {
			fs.Deliveries[i].SourceResidency = remap[sr]
		}
	}
}

// Gap measures the heuristic's optimality gap on one file: it runs both
// the greedy and the exhaustive search and returns greedy/optimal − 1
// (0 means the greedy was optimal).
func Gap(m *cost.Model, video media.VideoID, reqs []workload.Request) (float64, error) {
	greedy, err := ivs.ScheduleFile(m, video, reqs, ivs.Options{})
	if err != nil {
		return 0, err
	}
	_, best, err := ScheduleFile(m, video, reqs)
	if err != nil {
		return 0, err
	}
	g := m.FileCost(greedy)
	if best <= 0 {
		if g <= 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	if g < best-units.Money(1e-6) {
		return 0, fmt.Errorf("optimal: greedy %v beat the exhaustive optimum %v", g, best)
	}
	return float64(g)/float64(best) - 1, nil
}
