package loadgen_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/loadgen"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

func testRig(t *testing.T) *testutil.Rig {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 4, UsersPerStorage: 3, Titles: 10,
		CapacityGB: 4, RequestsPerUser: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tracePattern(requests int) workload.Pattern {
	return workload.Pattern{
		Base:     workload.Config{Seed: 17},
		Requests: requests,
		Span:     6 * simtime.Hour,
		Diurnal:  workload.Diurnal{Strength: 0.4, Peak: 3 * simtime.Hour, Period: 6 * simtime.Hour},
	}
}

// The harness drives a single vspserve node: every trace request lands,
// epochs advance on the server's own trigger, and the latency summary is
// populated.
func TestRunSingleServer(t *testing.T) {
	rig := testRig(t)
	srv, err := server.NewWithOptions(rig.Model, server.Options{
		Horizon: horizon.Config{EpochRequests: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	const n = 120
	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, tracePattern(n), 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:      ts.URL,
		Concurrency: 4,
		AdvanceLag:  simtime.Hour,
	}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != n {
		t.Fatalf("submitted %d of %d", res.Submitted, n)
	}
	// Closed-loop replay of a chronological trace with a lagged advance
	// target: nothing should shed (no admission limit here) and nothing
	// should be lost.
	if res.Accepted+res.Late != n || res.Errors != 0 {
		t.Fatalf("accepted %d late %d errors %d %v of %d", res.Accepted, res.Late, res.Errors, res.ErrorSamples, n)
	}
	if res.Shed != 0 {
		t.Fatalf("unexpected shedding: %d", res.Shed)
	}
	if res.Submit.N != n || res.Submit.P50 <= 0 || res.Submit.Max < res.Submit.P99 {
		t.Fatalf("latency summary inconsistent: %+v", res.Submit)
	}
	if want := float64(res.Accepted) / float64(n); res.Availability != want {
		t.Fatalf("availability %v, want %v", res.Availability, want)
	}
	if res.ErrorsByCause != nil {
		t.Fatalf("clean run reported error causes: %v", res.ErrorsByCause)
	}
	// Epoch indices are 0-based and the four workers' EpochDue kicks may
	// coalesce into a single advance, so FinalEpoch 0 is a correct answer;
	// what the run must show is a committed epoch and its horizon.
	if res.Advances == 0 || res.FinalHorizon <= 0 {
		t.Fatalf("epoch trigger never drove an advance: %+v", res)
	}
	if res.AdvanceErrors != 0 {
		t.Fatalf("%d of the harness's advances failed: %+v", res.AdvanceErrors, res)
	}
	if res.ShardRouted != nil {
		t.Fatalf("single server reported shard routing: %v", res.ShardRouted)
	}
}

// Against a 2-shard gateway the acks carry shard labels: the harness
// attributes traffic per shard and reads the gateway's advance lag.
func TestRunTwoShardGateway(t *testing.T) {
	rig := testRig(t)
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.NewWithOptions(rig.Model, server.Options{
			Horizon: horizon.Config{EpochRequests: 25},
			ShardID: "s" + string(rune('0'+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer func() { ts.Close(); srv.Close() }()
		urls = append(urls, ts.URL)
	}
	gw, err := gateway.New(gateway.Config{
		Shards: []gateway.ShardConfig{
			{ID: "s0", Primary: urls[0]},
			{ID: "s1", Primary: urls[1]},
		},
		Policy: gateway.RoundRobin(),
		Retry:  retryhttp.Options{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer func() { gts.Close(); gw.Close() }()

	const n = 100
	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, tracePattern(n), 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:      gts.URL,
		Concurrency: 4,
		AdvanceLag:  simtime.Hour,
	}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted+res.Late != n || res.Errors != 0 {
		t.Fatalf("accepted %d late %d errors %d %v of %d", res.Accepted, res.Late, res.Errors, res.ErrorSamples, n)
	}
	if len(res.ShardRouted) != 2 {
		t.Fatalf("round-robin over 2 shards routed %v", res.ShardRouted)
	}
	total := 0
	for _, c := range res.ShardRouted {
		total += c
	}
	if total != res.Accepted {
		t.Fatalf("shard counts %v don't cover %d accepted", res.ShardRouted, res.Accepted)
	}
	if res.AdvanceErrors != 0 {
		t.Fatalf("%d of the harness's advances failed: %+v", res.AdvanceErrors, res)
	}
}

// A saturated single-slot server sheds with 429: the harness must count
// shed traffic without retrying it.
func TestRunCountsShedding(t *testing.T) {
	rig := testRig(t)
	srv, err := server.NewWithOptions(rig.Model, server.Options{
		MaxInFlight: 1, MaxQueue: -1, // shed immediately at saturation
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	const n = 200
	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, tracePattern(n), 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:         ts.URL,
		Concurrency:    16,
		DisableAdvance: true,
	}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != n {
		t.Fatalf("submitted %d of %d", res.Submitted, n)
	}
	if res.Accepted+res.Shed+res.Late+res.Errors != n {
		t.Fatalf("outcomes don't partition: %+v", res)
	}
	if res.Shed == 0 {
		t.Skip("16 workers never collided on the single slot (scheduler timing); counted path covered elsewhere")
	}
	if res.ShedRate <= 0 || res.ShedRate > 1 {
		t.Fatalf("shed rate %v", res.ShedRate)
	}
	if res.Advances != 0 {
		t.Fatalf("advance driven despite DisableAdvance: %d", res.Advances)
	}
}

// Error accounting partitions by cause: blown deadlines, connection
// death, and 5xx replies land in separate buckets of ErrorsByCause.
func TestRunPartitionsErrorCauses(t *testing.T) {
	rig := testRig(t)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch n := calls.Add(1); {
		case n <= 3: // outlive the client's deadline
			time.Sleep(300 * time.Millisecond)
			w.WriteHeader(http.StatusAccepted)
		case n <= 6: // tear the connection down mid-exchange
			panic(http.ErrAbortHandler)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()

	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, tracePattern(9), 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:         ts.URL,
		Concurrency:    1, // serialize so the handler's phases are deterministic
		Timeout:        60 * time.Millisecond,
		DisableAdvance: true,
	}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 9 || res.Accepted != 0 {
		t.Fatalf("error accounting: %+v", res)
	}
	want := map[string]int{"timeout": 3, "connection": 3, "5xx": 3}
	for cause, n := range want {
		if res.ErrorsByCause[cause] != n {
			t.Fatalf("errors_by_cause = %v, want %v", res.ErrorsByCause, want)
		}
	}
	if res.Availability != 0 {
		t.Fatalf("availability %v with zero accepted", res.Availability)
	}
}

// A dead target yields transport errors, not a harness failure.
func TestRunSurvivesErrors(t *testing.T) {
	rig := testRig(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	pr := workload.NewPatternReader(rig.Topo, rig.Catalog, tracePattern(20), 0)
	defer pr.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{Target: ts.URL, Concurrency: 2}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 20 || res.Accepted != 0 {
		t.Fatalf("error accounting: %+v", res)
	}
	if len(res.ErrorSamples) == 0 {
		t.Fatal("no error samples kept")
	}
}
