package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// fastRetry keeps upstream retries snappy so failover paths resolve in
// milliseconds instead of the production backoff schedule.
var fastRetry = retryhttp.Options{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func testRig(t *testing.T) *testutil.Rig {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 2, Titles: 8,
		CapacityGB: 2, RequestsPerUser: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startShard binds a fresh server to a loopback port, registering
// cleanup. The caller gets the handles it needs to kill the node early.
func startShard(t testing.TB, r *testutil.Rig, opts server.Options) (string, *server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.NewWithOptions(r.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL, srv, ts
}

// startGateway serves gw over loopback with cleanup.
func startGateway(t testing.TB, cfg gateway.Config) (*gateway.Gateway, string) {
	t.Helper()
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })
	return gw, ts.URL
}

func submit(t testing.TB, base string, req workload.Request) gateway.ReservationResponse {
	t.Helper()
	at := req.Start
	var ack gateway.ReservationResponse
	err := retryhttp.PostJSON(context.Background(), fastRetry, base+"/v1/reservations",
		server.ReservationRequest{User: req.User, Video: req.Video, Start: req.Start, At: &at}, &ack)
	if err != nil {
		t.Fatalf("submit (user %d, video %d, %v): %v", req.User, req.Video, req.Start, err)
	}
	return ack
}

func gatewayStats(t *testing.T, base string) gateway.StatsResponse {
	t.Helper()
	var st gateway.StatsResponse
	if err := retryhttp.GetJSON(context.Background(), fastRetry, base+"/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundRobinRouting(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
	}
	_, base := startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	for i, req := range reqs[:6] {
		ack := submit(t, base, req)
		if want := fmt.Sprintf("s%d", i%3); ack.Shard != want {
			t.Fatalf("submit %d routed to %q, want %q", i, ack.Shard, want)
		}
		if !ack.Accepted {
			t.Fatalf("submit %d not accepted", i)
		}
	}
	st := gatewayStats(t, base)
	if st.Policy != "round-robin" {
		t.Fatalf("policy %q, want round-robin", st.Policy)
	}
	if st.Routed != 6 {
		t.Fatalf("routed_total %d, want 6", st.Routed)
	}
	for _, row := range st.Shards {
		if row.Routed != 2 {
			t.Fatalf("shard %s routed %d, want 2", row.ID, row.Routed)
		}
		if row.Role != "primary" {
			t.Fatalf("shard %s polled role %q, want primary", row.ID, row.Role)
		}
		if row.Pending != 2 {
			t.Fatalf("shard %s polled pending %d, want 2", row.ID, row.Pending)
		}
	}
}

func TestLocalityRouting(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
	}
	_, base := startGateway(t, gateway.Config{
		Shards: shards, Policy: gateway.Locality(), Topo: r.Topo, Retry: fastRetry,
	})
	regions := topology.UserRegions(r.Topo, 3)
	for u := 0; u < r.Topo.NumUsers(); u++ {
		ack := submit(t, base, workload.Request{User: topology.UserID(u), Video: 0, Start: simtime.Time(0).Add(simtime.Duration(u) * simtime.Hour)})
		if want := fmt.Sprintf("s%d", regions[u]); ack.Shard != want {
			t.Fatalf("user %d (region %d) routed to %q, want %q", u, regions[u], ack.Shard, want)
		}
	}
}

func TestHashRoutingDeterministic(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{Primary: url})
	}
	_, base := startGateway(t, gateway.Config{Shards: shards, Policy: gateway.Hash(), Retry: fastRetry})

	perVideo := make(map[int]string)
	used := make(map[string]bool)
	for round := 0; round < 2; round++ {
		for v := 0; v < r.Catalog.Len(); v++ {
			ack := submit(t, base, workload.Request{
				User: topology.UserID(v % r.Topo.NumUsers()), Video: media.VideoID(v),
				Start: simtime.Time(0).Add(simtime.Duration(round*100+v) * simtime.Minute),
			})
			if prev, ok := perVideo[v]; ok && prev != ack.Shard {
				t.Fatalf("video %d routed to %q then %q", v, prev, ack.Shard)
			}
			perVideo[v] = ack.Shard
			used[ack.Shard] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("hash placement used only %d shard(s) for %d titles", len(used), r.Catalog.Len())
	}
}

func TestLeastLoadedPolicyOrdering(t *testing.T) {
	p := gateway.LeastLoaded()
	views := []gateway.View{
		{Index: 0, Outstanding: 2},
		{Index: 1, Outstanding: 0, HasStats: true, Pending: 9},
		{Index: 2, Outstanding: 0, HasStats: true, Pending: 1},
	}
	if got := p.Place(gateway.RouteInfo{}, views); got != 2 {
		t.Fatalf("least-loaded picked %d, want 2 (fewest outstanding, lightest backlog)", got)
	}
	// Full tie keeps configuration order.
	views = []gateway.View{{Index: 0}, {Index: 1}, {Index: 2}}
	if got := p.Place(gateway.RouteInfo{}, views); got != 0 {
		t.Fatalf("least-loaded tie-break picked %d, want 0", got)
	}
}

func TestParsePlacement(t *testing.T) {
	for name, want := range map[string]string{
		"":             "round-robin",
		"round-robin":  "round-robin",
		"least-loaded": "least-loaded",
		"locality":     "locality",
		"hash":         "hash",
	} {
		p, err := gateway.ParsePlacement(name)
		if err != nil {
			t.Fatalf("ParsePlacement(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("ParsePlacement(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := gateway.ParsePlacement("zonal"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestUserRegionsContiguousBalanced(t *testing.T) {
	topo := topology.Metro(topology.GenConfig{Storages: 7, UsersPerStorage: 3, Capacity: units.GBf(2)}, 3)
	regions := topology.UserRegions(topo, 3)
	if len(regions) != topo.NumUsers() {
		t.Fatalf("got %d regions for %d users", len(regions), topo.NumUsers())
	}
	count := make(map[int]int)
	for u, reg := range regions {
		if reg < 0 || reg >= 3 {
			t.Fatalf("user %d in region %d, want [0,3)", u, reg)
		}
		count[reg]++
	}
	if len(count) != 3 {
		t.Fatalf("only %d of 3 regions populated: %v", len(count), count)
	}
	// Regions follow the storage order: users of one neighborhood never
	// split, and region sizes differ by at most one neighborhood.
	for reg, n := range count {
		if n%3 != 0 {
			t.Fatalf("region %d holds %d users — splits a 3-user neighborhood", reg, n)
		}
	}
}

func TestAdvanceBroadcastAndPlanMerge(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{Primary: url})
	}
	_, base := startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	var end simtime.Time
	for _, req := range reqs {
		submit(t, base, req)
		if req.Start > end {
			end = req.Start
		}
	}
	ctx := context.Background()
	var adv gateway.AdvanceResponse
	if err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance",
		server.AdvanceRequest{To: end.Add(simtime.Hour)}, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Admitted != len(reqs) {
		t.Fatalf("broadcast admitted %d, want %d", adv.Admitted, len(reqs))
	}
	if len(adv.Shards) != 3 {
		t.Fatalf("advance reported %d shards, want 3", len(adv.Shards))
	}
	var sum units.Money
	for _, se := range adv.Shards {
		sum += se.Result.Cost
	}
	if adv.Cost != sum {
		t.Fatalf("aggregate cost %v != per-shard sum %v", adv.Cost, sum)
	}
	// The aggregate must also decode as a plain EpochResult, so the
	// single-server driver works against a gateway unchanged.
	var er horizon.EpochResult
	if err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance",
		server.AdvanceRequest{To: end.Add(2 * simtime.Hour)}, &er); err != nil {
		t.Fatal(err)
	}
	if er.Horizon != end.Add(2*simtime.Hour) {
		t.Fatalf("EpochResult-compat decode: horizon %v, want %v", er.Horizon, end.Add(2*simtime.Hour))
	}

	var plan gateway.PlanResponse
	if err := retryhttp.GetJSON(ctx, fastRetry, base+"/v1/plan", &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Schedule == nil {
		t.Fatal("no merged schedule")
	}
	if err := plan.Schedule.Validate(r.Topo, r.Catalog, reqs); err != nil {
		t.Fatalf("merged plan invalid: %v", err)
	}
	if plan.Pending != 0 {
		t.Fatalf("pending %d after full advance", plan.Pending)
	}
	var costSum units.Money
	for _, sp := range plan.Shards {
		costSum += sp.Cost
	}
	if plan.Cost != costSum {
		t.Fatalf("plan cost %v != shard sum %v", plan.Cost, costSum)
	}
}

// A late arrival's 409 is a protocol answer, not a failover trigger: the
// gateway must relay it untouched and leave the standby alone.
func TestLateArrivalPassesThroughWithoutFailover(t *testing.T) {
	r := testRig(t)
	primaryURL, _, _ := startShard(t, r, server.Options{})
	standbyURL, _, _ := startShard(t, r, server.Options{Role: replica.RoleFollower})
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: primaryURL, Standby: standbyURL}},
		Retry:  fastRetry,
	})
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	submit(t, base, reqs[len(reqs)-1])
	ctx := context.Background()
	to := reqs[len(reqs)-1].Start.Add(simtime.Hour)
	if err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance", server.AdvanceRequest{To: to}, nil); err != nil {
		t.Fatal(err)
	}
	early := simtime.Time(0)
	err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/reservations",
		server.ReservationRequest{User: reqs[0].User, Video: reqs[0].Video, Start: early}, nil)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !strings.Contains(se.Message, "frozen") {
		t.Fatalf("late arrival answered %v, want 409 frozen-window conflict", err)
	}
	if st := gatewayStats(t, base); st.Failovers != 0 {
		t.Fatalf("late arrival triggered %d failovers", st.Failovers)
	}
}

// waitReady polls a node's /readyz until it reports serviceable.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var ready server.ReadyResponse
		if err := retryhttp.GetJSON(context.Background(), fastRetry, base+"/readyz", &ready); err == nil && ready.Ready {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("standby at %s never became ready", base)
}

// A fenced primary (demoted out of band, e.g. by an operator or a rival
// promotion) must make the gateway promote the standby and retry — the
// stale-leadership 409 is the failover trigger.
func TestFencedPrimaryAutoFailover(t *testing.T) {
	r := testRig(t)
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primaryURL, _, _ := startShard(t, r, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	standbyURL, standby, _ := startShard(t, r, server.Options{
		DataDir: t.TempDir(), Horizon: cfg,
		ReplicateFrom: primaryURL, ReplicateEvery: 2 * time.Millisecond,
	})
	ctx := context.Background()
	standby.StartReplication(ctx)

	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: primaryURL, Standby: standbyURL}},
		Retry:  fastRetry,
	})
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	for _, req := range reqs[:3] {
		submit(t, base, req)
	}
	waitReady(t, standbyURL)

	if err := retryhttp.PostJSON(ctx, fastRetry, primaryURL+"/v1/replication/fence",
		server.FenceRequest{Epoch: 2}, nil); err != nil {
		t.Fatal(err)
	}
	ack := submit(t, base, reqs[3]) // hits the fenced primary, fails over, retries
	if !ack.Accepted {
		t.Fatal("post-failover submit not accepted")
	}
	st := gatewayStats(t, base)
	if st.Failovers != 1 {
		t.Fatalf("failovers_total %d, want 1", st.Failovers)
	}
	if got := st.Shards[0].Primary; got != standbyURL {
		t.Fatalf("shard primary is %q after failover, want the promoted standby %q", got, standbyURL)
	}
	var repl struct {
		Role string `json:"role"`
	}
	if err := retryhttp.GetJSON(ctx, fastRetry, standbyURL+"/v1/replication/status", &repl); err != nil {
		t.Fatal(err)
	}
	if repl.Role != "primary" {
		t.Fatalf("standby role %q after failover, want primary", repl.Role)
	}
}

// Without a standby, a dead primary is a plain upstream failure: the
// gateway answers 502 and names the missing standby.
func TestDeadPrimaryWithoutStandby(t *testing.T) {
	r := testRig(t)
	primaryURL, srv, ts := startShard(t, r, server.Options{})
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: primaryURL}},
		Retry:  fastRetry,
	})
	ts.Close()
	srv.Close()
	err := retryhttp.PostJSON(context.Background(), retryhttp.Options{MaxAttempts: 1},
		base+"/v1/reservations",
		server.ReservationRequest{User: 0, Video: 0, Start: simtime.Time(simtime.Hour)}, nil)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Fatalf("dead shard answered %v, want 502", err)
	}
	if !strings.Contains(se.Message, "no standby") {
		t.Fatalf("502 message %q does not name the missing standby", se.Message)
	}
}

// TestAdvanceAndStatsSumResolution pins the tier-wide view of SORP's work: a
// broadcast advance's top-level resolution block is the sum of the shards',
// and /v1/stats carries the same running total — on a rig tight enough that
// the shards did resolve overflows and reuse evaluations, or the sums would
// be of zeros.
func TestAdvanceAndStatsSumResolution(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages: 4, UsersPerStorage: 6, Titles: 6,
		CapacityGB: 3, RequestsPerUser: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{Primary: url})
	}
	_, base := startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	for _, req := range reqs {
		submit(t, base, req)
	}
	var adv gateway.AdvanceResponse
	if err := retryhttp.PostJSON(context.Background(), fastRetry, base+"/v1/advance",
		server.AdvanceRequest{To: reqs[len(reqs)-1].Start.Add(simtime.Hour)}, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Shards) != 3 {
		t.Fatalf("advance reported %d shards, want 3", len(adv.Shards))
	}
	var sum scheduler.Work
	for _, se := range adv.Shards {
		sum.Add(se.Result.Resolution)
	}
	if adv.Resolution != sum {
		t.Errorf("aggregate resolution %+v != per-shard sum %+v", adv.Resolution, sum)
	}
	if sum.Reused == 0 || sum.Rewindowed == 0 {
		t.Fatalf("fixture bug: the shards' resolution sums to %+v; the rig must make them reuse", sum)
	}
	if st := gatewayStats(t, base); st.Resolution != sum {
		t.Errorf("/v1/stats resolution %+v != the advance's %+v", st.Resolution, sum)
	}
}

// A reschedule that costs nothing is infinitely hot (sorp.computeHeat), and
// JSON has no number for that: the shard used to answer such an epoch with
// an empty 200, which the gateway scored as a failed advance. The victim
// list must cross both tiers intact — shard encode, gateway decode, gateway
// encode, client decode — and equal what the same epoch yields in process.
func TestInfinitelyHotVictimCrossesBothTiers(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages: 4, UsersPerStorage: 3, Titles: 10,
		CapacityGB: 4, RequestsPerUser: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	to := reqs[len(reqs)-1].Start.Add(simtime.Hour)

	local := horizon.New(r.Model, horizon.Config{})
	for _, req := range reqs {
		if _, err := local.Submit(req.Start, req); err != nil {
			t.Fatal(err)
		}
	}
	want, err := local.Advance(context.Background(), to)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, v := range want.Victims {
		if math.IsInf(v.Heat, 1) {
			hot++
		}
	}
	if hot == 0 || hot == len(want.Victims) {
		t.Fatalf("fixture bug: %d of %d victims infinitely hot; the rig must yield both kinds", hot, len(want.Victims))
	}

	url, _, _ := startShard(t, r, server.Options{})
	_, base := startGateway(t, gateway.Config{Shards: []gateway.ShardConfig{{Primary: url}}, Retry: fastRetry})
	for _, req := range reqs {
		submit(t, base, req)
	}
	var adv gateway.AdvanceResponse
	if err := retryhttp.PostJSON(context.Background(), fastRetry, base+"/v1/advance",
		server.AdvanceRequest{To: to}, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Failed) != 0 || len(adv.Shards) != 1 {
		t.Fatalf("advance: %d shard results, failures %+v", len(adv.Shards), adv.Failed)
	}
	if got := adv.Shards[0].Result.Victims; !reflect.DeepEqual(got, want.Victims) {
		t.Errorf("victims through shard and gateway\n got %+v\nwant %+v", got, want.Victims)
	}
	if br := gatewayStats(t, base).Shards[0].Breaker; br == nil || br.WindowFail != 0 {
		t.Errorf("a committed epoch scored the shard's breaker a failure: %+v", br)
	}
}

// The shard's /v1/stats overload block gained deadline_exceeded beside shed;
// the gateway's poller decodes the whole reply into server.StatsResponse, so
// the block it reads its load figures from must still arrive intact.
func TestStatsPollerReadsTheOverloadBlock(t *testing.T) {
	r := testRig(t)
	url, _, _ := startShard(t, r, server.Options{MaxInFlight: 7})
	_, base := startGateway(t, gateway.Config{Shards: []gateway.ShardConfig{{Primary: url}}, Retry: fastRetry})
	submit(t, base, r.Requests[0])

	var shard struct {
		Overload map[string]float64 `json:"overload"`
	}
	if err := retryhttp.GetJSON(context.Background(), fastRetry, url+"/v1/stats", &shard); err != nil {
		t.Fatal(err)
	}
	if _, ok := shard.Overload["deadline_exceeded"]; !ok || shard.Overload["max_in_flight"] != 7 {
		t.Fatalf("shard overload block %v: want deadline_exceeded beside max_in_flight 7", shard.Overload)
	}
	row := gatewayStats(t, base).Shards[0]
	if row.StatsError != "" || row.Pending != 1 || row.Role != "primary" {
		t.Errorf("polled shard row %+v: want the one pending reservation and no stats error", row)
	}
}
