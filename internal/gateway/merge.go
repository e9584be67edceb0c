package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/units"
)

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
// partition), plus the per-shard breakdown. Shards partition the
// reservation stream, not the catalog, so two may both have scheduled a
// title: the schedule is the shards' files merged by schedule.AppendMerged,
// in shard order.
type PlanResponse struct {
	Schedule *schedule.Schedule `json:"schedule"`
	Horizon  simtime.Time       `json:"horizon"`
	Epoch    int                `json:"epoch"`
	Pending  int                `json:"pending"`
	Cost     units.Money        `json:"cost"`
	Shards   []ShardPlan        `json:"shards"`
}

// mergedPlan is the merged schedule's encoding beside the shard schedules it
// was merged from, in shard order. Immutable once published; blob is never
// written again, so a reply in flight across a commit finishes with the
// bytes it started with.
type mergedPlan struct {
	from []*schedule.Encoding
	blob []byte
}

// PlanStats counts the plan path's work since start: reads answered or
// attempted, shard schedules replaced because their bytes differed from the
// kept ones (summed over shards; the JSON name is from when each was
// decoded), and merged plans built. With no commit between reads only Reads
// moves.
type PlanStats struct {
	Reads        uint64 `json:"reads"`
	ShardDecodes uint64 `json:"shard_decodes"`
	Merges       uint64 `json:"merges"`
}

// handlePlan answers json.Marshal(PlanResponse) plus a newline, byte for
// byte, at the cost of what changed since the last read: a shard's schedule
// is indexed when its bytes differ from the last ones that shard sent
// (keepSchedule), the shards' encodings are merged when some shard's was
// replaced (mergedSchedule), and the rest is the few fields that move with
// every reservation. Nothing is invalidated: the validators are the bytes
// and the pointers themselves, so a promoted standby serving the same plan
// is a hit and a shard back with another plan under the same epoch is a
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
func (g *Gateway) fetchPlans(ctx context.Context) ([]*schedule.Encoding, planRest, *shard, error) {
	from := make([]*schedule.Encoding, len(g.shards))
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
func (g *Gateway) fetchPlan(ctx context.Context, sh *shard) (*schedule.Encoding, ShardPlan, error) {
	var kept *schedule.Encoding
	row := ShardPlan{Shard: sh.id}
	err := g.forward(ctx, sh, func(base string) error {
		return retryhttp.GetBody(ctx, g.retry, base+"/v1/plan", func(body []byte) error {
			sched, err := splitPlan(body, &row)
			if err == nil {
				kept, err = g.keepSchedule(sh, sched)
			}
			return err
		})
	})
	return kept, row, err
}

// splitPlan takes a shard's plan reply apart as the shard writes it —
// {"schedule":S,"horizon":H,"epoch":E,"pending":P,"cost":C} and a newline —
// and returns S, which the last ,"horizon": ends; the small fields go into
// row. Anything else is an error: a reply is one value with its fields in
// that order, and S is a canonical encoding, which keepSchedule checks.
func splitPlan(body []byte, row *ShardPlan) ([]byte, error) {
	const head = `{"schedule":`
	body, _ = bytes.CutSuffix(body, []byte("\n"))
	at := bytes.LastIndex(body, []byte(`,"horizon":`))
	if !bytes.HasPrefix(body, []byte(head)) || at < len(head) {
		return nil, errors.New(`want {"schedule":…,"horizon":…}`)
	}
	t := planTail{b: body[at:]}
	row.Horizon = simtime.Time(t.int(`,"horizon":`))
	row.Epoch = int(t.int(`,"epoch":`))
	row.Pending = int(t.int(`,"pending":`))
	row.Cost = units.Money(t.float(`,"cost":`))
	if t.err == nil && string(t.b) != "}" {
		t.err = fmt.Errorf("want } after the cost, not %q", t.b)
	}
	return body[len(head):at], t.err
}

// planTail reads the small fields after a shard plan's schedule, each a
// name and a JSON number. Its first failure sticks.
type planTail struct {
	b   []byte
	err error
}

// number consumes name and the JSON number after it and returns the number.
func (t *planTail) number(name string) string {
	if t.err != nil {
		return ""
	}
	rest, ok := bytes.CutPrefix(t.b, []byte(name))
	n := numberLen(rest)
	if !ok || n == 0 {
		t.err = fmt.Errorf("want %s and a number", name)
		return ""
	}
	t.b = rest[n:]
	return string(rest[:n])
}

func (t *planTail) int(name string) int64 {
	s := t.number(name)
	if t.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.err = fmt.Errorf("%s: %w", name, err)
	}
	return v
}

func (t *planTail) float(name string) float64 {
	s := t.number(name)
	if t.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.err = fmt.Errorf("%s: %w", name, err)
	}
	return v
}

// numberLen is the length of the JSON number b starts with, 0 if none.
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := digits(j); k > j {
			i = k
		} else {
			return 0
		}
	}
	return i
}

// keepSchedule returns the encoding of the schedule a shard just sent as raw.
// Bytes equal to the ones kept from its last reply stand for the encoding
// already indexed; different bytes are copied out of the reply buffer,
// indexed once and kept in their place, and bytes that are not a canonical
// encoding are refused with nothing kept. Readers that find a new schedule at
// the same instant may each index it; the one stored last serves the reads
// that follow.
func (g *Gateway) keepSchedule(sh *shard, raw []byte) (*schedule.Encoding, error) {
	if kept := sh.plan.Load(); kept != nil && bytes.Equal(kept.Bytes(), raw) {
		return kept, nil
	}
	next, err := schedule.NewEncoding(bytes.Clone(raw))
	if err != nil {
		return nil, err
	}
	g.planReplaced.Add(1)
	sh.plan.Store(next)
	return next, nil
}

// mergedSchedule returns schedule.AppendMerged of from, built at the first
// call for a tuple of shard encodings and kept for the later ones. Every
// encoding in from is immutable and a changed shard schedule arrives in a
// new one, so the pointers say whether the kept bytes still are their merge.
// A new merge goes into a buffer of its own, sized from the shards' bytes
// with an eighth to spare for the rebased references.
func (g *Gateway) mergedSchedule(from []*schedule.Encoding) []byte {
	m := g.merged.Load()
	if m != nil && slices.Equal(m.from, from) {
		return m.blob
	}
	var n int
	for _, e := range from {
		n += len(e.Bytes())
	}
	blob := schedule.AppendMerged(make([]byte, 0, n+n/8), from...)
	g.planMerges.Add(1)
	g.merged.Store(&mergedPlan{from: from, blob: blob})
	return blob
}
