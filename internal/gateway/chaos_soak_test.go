//go:build chaossoak

package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/chaos"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/loadgen"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// The chaos soak: a pattern-generated trace replayed through a 3-shard
// gateway while a randomized (but seed-deterministic) chaos schedule
// tears at the gateway→shard links — gray latency, hard partitions,
// flapping, 5xx bursts, torn plan reads. The driver retries every submit
// until it is acked, which is safe because the chaos transport never
// injects an ambiguous write failure (an injected fault means the shard
// never saw the request). Afterwards the run must satisfy the paradigm's
// invariants exactly:
//
//   - every acked reservation appears in exactly one shard's committed
//     plan, and nowhere twice (no lost or duplicated accepts);
//   - every shard's plan passes the audit bundle for its own subset,
//     and the merged plan passes schedule.Validate for the full set;
//   - no breaker is wedged open once the faults clear;
//   - no late arrival (409) was ever produced — the low-watermark
//     advance keeps the commit horizon behind every in-flight start;
//   - no submit attempt overran its deadline beyond a grace bound.
//
// Build-tagged chaossoak; CI runs the -short slice (one seed).
func TestChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { soak(t, seed) })
	}
}

type soakKey struct {
	u topology.UserID
	v media.VideoID
	s simtime.Time
}

func soak(t *testing.T, seed int64) {
	rig := testRig(t)
	trace := soakTrace(t, rig, seed, 240)

	var shards []gateway.ShardConfig
	var shardURLs, hosts []string
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, rig, server.Options{ShardID: fmt.Sprintf("s%d", i)})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
		shardURLs = append(shardURLs, url)
		hosts = append(hosts, strings.TrimPrefix(url, "http://"))
	}

	const chaosFor = 3 * time.Second
	inj := chaos.New(seed, chaos.RandomRules(seed, hosts, chaosFor)...)
	_, base := startGateway(t, gateway.Config{
		Shards: shards,
		Retry: retryhttp.Options{
			Client:      &http.Client{Transport: &chaos.Transport{Injector: inj}},
			MaxAttempts: 2,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		ShardTimeout: time.Second,
		Breaker: gateway.BreakerConfig{
			Window:     2 * time.Second,
			MinSamples: 4,
			SlowCall:   300 * time.Millisecond,
			OpenFor:    250 * time.Millisecond,
		},
	})

	// Phase A replays 90% of the trace while chaos is live; phase B
	// replays the rest after the faults (and the breaker cool-offs) have
	// cleared, so every tripped breaker gets its half-open probe from
	// real traffic and must close.
	split := len(trace) * 9 / 10
	const (
		attemptBudget = 2 * time.Second
		grace         = time.Second
	)
	var late, blown atomic.Int64
	// pace spreads the replay across the chaos schedule: an unpaced
	// loopback replay finishes in milliseconds and would slip between the
	// fault windows entirely.
	drive := func(reqs workload.Set, pace time.Duration) {
		t.Helper()
		feed := make(chan workload.Request)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for req := range feed {
					deadline := time.Now().Add(30 * time.Second)
					for {
						ctx, cancel := context.WithTimeout(context.Background(), attemptBudget)
						at := req.Start
						var ack gateway.ReservationResponse
						t0 := time.Now()
						err := retryhttp.PostJSON(ctx, retryhttp.Options{MaxAttempts: 1},
							base+"/v1/reservations",
							api.ReservationRequest{User: req.User, Video: req.Video, Start: req.Start, At: &at}, &ack)
						cancel()
						if time.Since(t0) > attemptBudget+grace {
							blown.Add(1)
						}
						if err == nil && ack.Accepted {
							break
						}
						var se *retryhttp.StatusError
						if errors.As(err, &se) && se.Code == http.StatusConflict {
							late.Add(1)
							return // a 409 is an invariant violation; no point retrying
						}
						if time.Now().After(deadline) {
							t.Errorf("submit (user %d, video %d, %v) never acked: %v", req.User, req.Video, req.Start, err)
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
			}()
		}
		for _, r := range reqs {
			feed <- r
			if pace > 0 {
				time.Sleep(pace)
			}
		}
		close(feed)
		wg.Wait()
	}

	drive(trace[:split], chaosFor/time.Duration(len(trace)))

	// Low-watermark advance at the phase boundary, under chaos: the
	// target sits a full hour behind the earliest start still to come, so
	// nothing in phase B can arrive behind the horizon. Partial broadcast
	// failures are expected here and tolerated.
	if target := trace[split].Start.Add(-simtime.Hour); target > 0 {
		_ = retryhttp.PostJSON(context.Background(), retryhttp.Options{MaxAttempts: 1},
			base+"/v1/advance", api.AdvanceRequest{To: target}, nil)
	}

	// Let every chaos window and every breaker cool-off expire.
	if rem := chaosFor - inj.Elapsed(); rem > 0 {
		time.Sleep(rem)
	}
	time.Sleep(300 * time.Millisecond)

	drive(trace[split:], 0)

	if n := late.Load(); n != 0 {
		t.Fatalf("%d late (409) arrivals; the low-watermark advance must prevent all of them", n)
	}
	if n := blown.Load(); n != 0 {
		t.Fatalf("%d submit attempts overran their %v budget by more than %v", n, attemptBudget, grace)
	}
	if t.Failed() {
		t.FailNow() // un-acked submits: the plan checks below would be noise
	}

	// Final advance past every start must eventually succeed on all
	// shards — the faults are gone.
	end := trace[len(trace)-1].Start
	for _, r := range trace {
		if r.Start > end {
			end = r.Start
		}
	}
	finalDeadline := time.Now().Add(10 * time.Second)
	for {
		var adv gateway.AdvanceResponse
		err := retryhttp.PostJSON(context.Background(), fastRetry,
			base+"/v1/advance", api.AdvanceRequest{To: end.Add(simtime.Hour)}, &adv)
		if err == nil && len(adv.Failed) == 0 && len(adv.Shards) == 3 {
			break
		}
		if time.Now().After(finalDeadline) {
			t.Fatalf("final advance never clean: err=%v failed=%+v", err, adv.Failed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Breakers must not be wedged: phase B traffic probed and closed
	// every tripped breaker.
	st := gatewayStats(t, base)
	for _, row := range st.Shards {
		if row.Breaker == nil {
			t.Fatalf("shard %s reports no breaker", row.ID)
		}
		if row.Breaker.State != "closed" {
			t.Fatalf("shard %s breaker wedged %q after faults cleared: %+v", row.ID, row.Breaker.State, row.Breaker)
		}
	}
	if st.HealthyShards != 3 {
		t.Fatalf("healthy_shards %d, want 3", st.HealthyShards)
	}

	// Exactly-once: collect every shard's committed deliveries and check
	// the acked set is partitioned — each reservation in exactly one
	// shard's plan, none duplicated, none lost. Each shard's plan must
	// also pass the audit bundle against exactly the subset it committed
	// (shards schedule independently, so capacity is a per-shard claim;
	// the merged plan gets the structural validation below).
	byKey := make(map[soakKey]workload.Request, len(trace))
	for _, r := range trace {
		byKey[soakKey{r.User, r.Video, r.Start}] = r
	}
	counts := make(map[soakKey]int)
	for i, url := range shardURLs {
		var plan api.PlanResponse
		if err := retryhttp.GetJSON(context.Background(), fastRetry, url+"/v1/plan", &plan); err != nil {
			t.Fatalf("shard %d plan: %v", i, err)
		}
		if plan.Pending != 0 {
			t.Fatalf("shard %d still has %d pending after the final advance", i, plan.Pending)
		}
		var subset workload.Set
		for _, fs := range plan.Schedule.Files {
			for _, d := range fs.Deliveries {
				k := soakKey{d.User, d.Video, d.Start}
				counts[k]++
				if req, ok := byKey[k]; ok {
					subset = append(subset, req)
				}
			}
		}
		if err := plan.Schedule.Validate(rig.Topo, rig.Catalog, subset); err != nil {
			t.Fatalf("shard %d plan invalid: %v", i, err)
		}
		if rep := audit.Run(rig.Model, plan.Schedule, subset); !rep.OK() {
			t.Fatalf("audit found %d defect(s) in shard %d's plan: %+v", len(rep.Findings), i, rep.Findings)
		}
	}
	for _, req := range trace {
		k := soakKey{req.User, req.Video, req.Start}
		if c := counts[k]; c != 1 {
			t.Fatalf("acked reservation (user %d, video %d, %v) committed %d times across shards, want exactly 1",
				req.User, req.Video, req.Start, c)
		}
	}
	committed := 0
	for _, c := range counts {
		committed += c
	}
	if committed != len(trace) {
		t.Fatalf("shards committed %d deliveries for %d acked reservations", committed, len(trace))
	}

	// The merged plan must hold up to full structural validation against
	// exactly the acked request set. (The capacity/cost audit ran per
	// shard above: shards schedule independently against their own slice
	// of the stream, so the union may legitimately overlap on storage.)
	var merged gateway.PlanResponse
	if err := retryhttp.GetJSON(context.Background(), fastRetry, base+"/v1/plan", &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Pending != 0 {
		t.Fatalf("merged plan still pending %d", merged.Pending)
	}
	if err := merged.Schedule.Validate(rig.Topo, rig.Catalog, trace); err != nil {
		t.Fatalf("merged plan invalid after chaos run: %v", err)
	}

	// The schedule must actually have bitten, or the soak proved nothing.
	if s := inj.Stats(); s.Dropped+s.Errored+s.Delayed == 0 {
		t.Fatalf("chaos schedule never fired: %+v", s)
	}
	t.Logf("seed %d: %d reservations, chaos %+v, sheds %d", seed, len(trace), inj.Stats(), st.GatewayShed)
}

// soakTrace generates the seed's trace: a diurnal pattern deduplicated
// by (user, video, start) — the exactly-once accounting needs distinct
// keys — and sorted chronologically so the low-watermark advance works.
func soakTrace(t *testing.T, rig *testutil.Rig, seed int64, n int) workload.Set {
	t.Helper()
	set, err := workload.GeneratePattern(rig.Topo, rig.Catalog, workload.Pattern{
		Base:     workload.Config{Seed: seed},
		Requests: n,
		Span:     12 * simtime.Hour,
		Diurnal:  workload.Diurnal{Strength: 0.4, Peak: 6 * simtime.Hour, Period: 12 * simtime.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[soakKey]bool)
	out := set[:0]
	for _, r := range set {
		k := soakKey{r.User, r.Video, r.Start}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	workload.SortChronological(out)
	return out
}

// The gray-failure benchmark behind the breaker work: one shard answers
// 2s late (alive, useless), and the run is measured twice through
// loadgen — breakers off and on. With breakers disabled every third
// request eats the 2s; with the slow-call breaker plus a shard deadline
// the sick shard is ejected after a handful of samples and p99 collapses.
// The acceptance bar is 5×; the assertion keeps a margin for CI noise.
// Set CHAOS_BENCH_OUT to merge both measurements into a BENCH json file.
func TestGrayFailureBreakerBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("gray-failure bench replays 2s-latency traffic; skipped in -short")
	}
	rig := testRig(t)
	pattern := workload.Pattern{
		Base:     workload.Config{Seed: 11},
		Requests: 600,
		Span:     12 * simtime.Hour,
	}

	off := grayRun(t, rig, pattern, false)
	on := grayRun(t, rig, pattern, true)
	t.Logf("breakers off: p99 %v avail %.3f | breakers on: p99 %v avail %.3f",
		off.Submit.P99, off.Availability, on.Submit.P99, on.Availability)

	if on.Submit.P99 <= 0 {
		t.Fatalf("hardened run has no latency data: %+v", on.Submit)
	}
	ratio := float64(off.Submit.P99) / float64(on.Submit.P99)
	if ratio < 3 {
		t.Fatalf("breakers bought only %.1fx on p99 (off %v, on %v), want >= 3x (target 5x)",
			ratio, off.Submit.P99, on.Submit.P99)
	}
	// Ejection cost is bounded by the in-flight window: every worker that
	// routed to the sick shard before the first 300ms outcome landed eats
	// one 502, so at most ~Concurrency requests fail, ever.
	if failBudget := 1.0 - float64(2*16)/600.0; on.Availability < failBudget {
		t.Fatalf("hardened availability %.3f, want >= %.3f (ejection must cost at most the in-flight window)",
			on.Availability, failBudget)
	}

	if out := os.Getenv("CHAOS_BENCH_OUT"); out != "" {
		for _, r := range []*loadgen.Result{off, on} {
			if err := mergeBenchEntry(out, r); err != nil {
				t.Fatalf("recording %q: %v", r.Name, err)
			}
		}
		t.Logf("recorded both runs in %s", out)
	}
}

// grayRun stands up a fresh 3-shard gateway whose middle shard is 2s
// slow on the upstream link and replays the pattern through loadgen.
func grayRun(t *testing.T, rig *testutil.Rig, pattern workload.Pattern, hardened bool) *loadgen.Result {
	t.Helper()
	var shards []gateway.ShardConfig
	var hosts []string
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, rig, server.Options{ShardID: fmt.Sprintf("s%d", i)})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
		hosts = append(hosts, strings.TrimPrefix(url, "http://"))
	}
	inj := chaos.New(7, chaos.Rule{
		Host:  hosts[1],
		Fault: chaos.Fault{LatencyMin: 2 * time.Second, LatencyMax: 2 * time.Second},
	})
	cfg := gateway.Config{
		Shards: shards,
		Retry: retryhttp.Options{
			Client:      &http.Client{Transport: &chaos.Transport{Injector: inj}},
			MaxAttempts: 1,
		},
		Breaker: gateway.BreakerConfig{Disabled: true},
	}
	name := "gray-failure breakers off"
	if hardened {
		name = "gray-failure breakers on"
		cfg.ShardTimeout = 300 * time.Millisecond
		cfg.Breaker = gateway.BreakerConfig{
			Window:     2 * time.Second,
			MinSamples: 3,
			SlowCall:   250 * time.Millisecond,
			OpenFor:    10 * time.Second, // outlive the run: no mid-run re-probe
		}
	}
	_, base := startGateway(t, cfg)

	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, pattern, 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:      base,
		Concurrency: 16,
		Timeout:     30 * time.Second,
	}, pr)
	if err != nil {
		t.Fatal(err)
	}
	res.Name = name
	if res.Submitted != pattern.Requests {
		t.Fatalf("%s: submitted %d of %d", name, res.Submitted, pattern.Requests)
	}
	return res
}

// mergeBenchEntry merges one named loadgen result into a BENCH json
// array file, replacing an entry with the same name and wrapping a
// legacy single-object file as the first element.
func mergeBenchEntry(path string, res *loadgen.Result) error {
	nb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var entries []json.RawMessage
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if trimmed := strings.TrimSpace(string(existing)); trimmed != "" {
		if strings.HasPrefix(trimmed, "[") {
			if err := json.Unmarshal([]byte(trimmed), &entries); err != nil {
				return err
			}
		} else {
			entries = []json.RawMessage{json.RawMessage(trimmed)}
		}
	}
	replaced := false
	for i, e := range entries {
		var peek struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(e, &peek) == nil && peek.Name == res.Name {
			entries[i] = nb
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, nb)
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
