package gateway_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// The gateway failover property, in the style of internal/replica's
// TestFailoverAtRecordBoundaries but with the whole tier in the loop:
// kill one shard's primary at a record boundary mid-load, and the
// gateway must promote that shard's standby on its own and finish the
// workload with a merged committed plan byte-identical to a run that
// never failed. The hash placement makes routing deterministic, so the
// interrupted and uninterrupted runs shard the stream identically.

func failoverParams() testutil.Params {
	return testutil.Params{
		Storages:        4,
		UsersPerStorage: 3,
		Titles:          10,
		CapacityGB:      2,
		RequestsPerUser: 2,
		Seed:            7,
	}
}

// op is one scripted operation; submissions journal one WAL record each,
// so op boundaries are record boundaries on every shard's journal.
type op struct {
	submit bool
	req    workload.Request
	to     simtime.Time
}

// buildOps scripts the seeded workload: submissions in chronological
// order with a broadcast Advance closing each epoch.
func buildOps(r *testutil.Rig, epochs int) []op {
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	step := simtime.Duration(int64(window) / int64(epochs))

	var ops []op
	next := 0
	for k := 1; k <= epochs; k++ {
		h := simtime.Time(int64(step) * int64(k))
		for next < len(reqs) && reqs[next].Start < h.Add(step) {
			ops = append(ops, op{submit: true, req: reqs[next]})
			next++
		}
		ops = append(ops, op{to: h})
	}
	return ops
}

// driveOp sends one op through the gateway as a client would.
func driveOp(t *testing.T, base string, o op) {
	t.Helper()
	ctx := context.Background()
	var err error
	if o.submit {
		err = retryhttp.PostJSON(ctx, fastRetry, base+"/v1/reservations",
			server.ReservationRequest{User: o.req.User, Video: o.req.Video, Start: o.req.Start}, nil)
	} else {
		err = retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance", server.AdvanceRequest{To: o.to}, nil)
	}
	if err != nil {
		t.Fatalf("drive %+v: %v", o, err)
	}
}

// planFingerprint fetches the gateway's merged plan and renders the
// parts a failover must preserve as JSON, so comparison is byte-exact.
func planFingerprint(t *testing.T, base string) string {
	t.Helper()
	var plan gateway.PlanResponse
	if err := retryhttp.GetJSON(context.Background(), fastRetry, base+"/v1/plan", &plan); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]any{
		"schedule": plan.Schedule,
		"horizon":  plan.Horizon,
		"epoch":    plan.Epoch,
		"pending":  plan.Pending,
		"cost":     plan.Cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// node is one shard server whose kill is idempotent, so an early kill
// and the registered cleanup cannot double-close the journal.
type node struct {
	srv  *server.Server
	ts   *httptest.Server
	url  string
	once sync.Once
}

func (n *node) kill() {
	n.once.Do(func() {
		n.ts.Close()
		n.srv.Close()
	})
}

func startNode(t *testing.T, r *testutil.Rig, opts server.Options) *node {
	t.Helper()
	srv, err := server.NewWithOptions(r.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	n := &node{srv: srv, ts: ts, url: ts.URL}
	t.Cleanup(n.kill)
	return n
}

// referencePlan replays every op through a gateway over three
// uninterrupted in-memory shards. The committed schedule is
// byte-identical between in-memory and durable services, so this is the
// plan every failover run must reproduce.
func referencePlan(t *testing.T, r *testutil.Rig, ops []op) string {
	t.Helper()
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		n := startNode(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: n.url})
	}
	gw, err := gateway.New(gateway.Config{Shards: shards, Policy: gateway.Hash(), Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(func() { gts.Close(); gw.Close() })
	for _, o := range ops {
		driveOp(t, gts.URL, o)
	}
	return planFingerprint(t, gts.URL)
}

// waitCaughtUp blocks until the standby has applied every record the
// primary has journaled. The standby's own /readyz is not enough here:
// its CaughtUp flag compares against the primary sequence seen at its
// *last* poll, which may predate the final boundary record.
func waitCaughtUp(t *testing.T, primary, standby string) {
	t.Helper()
	ctx := context.Background()
	var pst replica.Status
	if err := retryhttp.GetJSON(ctx, fastRetry, primary+"/v1/replication/status", &pst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st replica.Status
		err := retryhttp.GetJSON(ctx, fastRetry, standby+"/v1/replication/status", &st)
		if err == nil && st.Synced && st.AppliedSeq >= pst.AppliedSeq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby %s never caught up to primary seq %d (last status %+v, err %v)",
				standby, pst.AppliedSeq, st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func runGatewayFailover(t *testing.T, r *testutil.Rig, ops []op, boundary int, want string) {
	t.Helper()
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	var shards []gateway.ShardConfig
	primaries := make([]*node, 3)
	standbys := make([]*node, 3)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		primaries[i] = startNode(t, r, server.Options{DataDir: t.TempDir(), Horizon: cfg})
		standbys[i] = startNode(t, r, server.Options{
			DataDir: t.TempDir(), Horizon: cfg,
			ReplicateFrom: primaries[i].url, ReplicateEvery: 2 * time.Millisecond,
		})
		standbys[i].srv.StartReplication(ctx)
		shards = append(shards, gateway.ShardConfig{
			ID: fmt.Sprintf("s%d", i), Primary: primaries[i].url, Standby: standbys[i].url,
		})
	}
	gw, err := gateway.New(gateway.Config{Shards: shards, Policy: gateway.Hash(), Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(func() { gts.Close(); gw.Close() })

	for _, o := range ops[:boundary] {
		driveOp(t, gts.URL, o)
	}

	// Kill one primary at the record boundary — the victim rotates with
	// the boundary, so the property is exercised for every shard. The
	// standby's continuous 2ms shipping catches it up before the kill.
	victim := boundary % 3
	waitCaughtUp(t, primaries[victim].url, standbys[victim].url)
	primaries[victim].kill()

	for _, o := range ops[boundary:] {
		driveOp(t, gts.URL, o)
	}

	// The final plan fetch reaches every shard, so even a failover with no
	// ops left to drive must promote the standby to answer it.
	if got := planFingerprint(t, gts.URL); got != want {
		t.Errorf("boundary %d (victim s%d): merged plan differs from uninterrupted run:\n got %.200s...\nwant %.200s...",
			boundary, victim, got, want)
	}
	var st gateway.StatsResponse
	if err := retryhttp.GetJSON(ctx, fastRetry, gts.URL+"/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Failovers == 0 {
		t.Errorf("boundary %d: gateway never failed shard s%d over", boundary, victim)
	}
	if got := st.Shards[victim].Primary; got != standbys[victim].url {
		t.Errorf("boundary %d: shard s%d serves from %q, want promoted standby %q",
			boundary, victim, got, standbys[victim].url)
	}
}

// TestGatewayFailoverAtRecordBoundaries is the tier-level headline
// property: killing any one shard primary at any record boundary under
// load loses zero accepted reservations — the gateway promotes the
// standby itself and the merged committed plan is byte-identical to the
// uninterrupted run.
func TestGatewayFailoverAtRecordBoundaries(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(r, 3)
	want := referencePlan(t, r, ops)

	stride := 5
	if testing.Short() {
		stride = 9
	}
	boundaries := []int{}
	for i := 0; i <= len(ops); i += stride {
		boundaries = append(boundaries, i)
	}
	if len(ops)%stride != 0 {
		// Always include the final boundary: a failover with nothing left
		// to re-drive must still reproduce the whole merged plan.
		boundaries = append(boundaries, len(ops))
	}
	for _, b := range boundaries {
		t.Run(fmt.Sprintf("boundary=%d", b), func(t *testing.T) {
			runGatewayFailover(t, r, ops, b, want)
		})
	}
}
