package gateway_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// Submit-path throughput through the gateway: one shard versus three.
// Each shard serializes intake on its service lock, so with concurrent
// clients (run these with -cpu 4; see the bench-json Makefile target)
// the 3-shard tier admits disjoint request streams in parallel while the
// single server takes them one at a time. benchjson derives
// gateway_submit_speedup_3shards from the matched pair.

func benchSubmit(b *testing.B, shardCount int) {
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 16,
		CapacityGB: 4, RequestsPerUser: 50, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	var shards []gateway.ShardConfig
	for i := 0; i < shardCount; i++ {
		srv, err := server.NewWithOptions(r.Model, server.Options{MaxInFlight: -1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		b.Cleanup(func() { ts.Close(); srv.Close() })
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: ts.URL})
	}
	gw, err := gateway.New(gateway.Config{Shards: shards, Policy: gateway.RoundRobin(), Retry: fastRetry})
	if err != nil {
		b.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	b.Cleanup(func() { gts.Close(); gw.Close() })

	reqs := append(workload.Set(nil), r.Requests...)
	ctx := context.Background()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := reqs[int(next.Add(1))%len(reqs)]
			err := retryhttp.PostJSON(ctx, fastRetry, gts.URL+"/v1/reservations",
				server.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGatewaySubmit1Server(b *testing.B) { benchSubmit(b, 1) }

func BenchmarkGatewaySubmit3Shards(b *testing.B) { benchSubmit(b, 3) }

// BenchmarkGatewayPlanRead is what one GET /v1/plan costs the tier between
// Gateway.ServeHTTP and the last body byte, over three in-process shards
// holding a committed plan of gateway_paced's final size (1 920
// reservations, a merged body of 160 KB): the three loopback fetches, the
// shards' handlers, and whatever the gateway decodes, merges and encodes.
// "unchanged" is read after read with no commit between — 36 of
// gateway_paced's 50 reads — and must cost nothing that grows with the
// plan; `make bench-smoke` holds its B/op to the figure in
// BENCH_scheduler.json, which decoding per read exceeds a hundredfold.
// "after_commit" puts a reservation on every shard and a broadcast advance
// between reads (outside the timer), so each read decodes three schedules,
// merges and encodes once.
func BenchmarkGatewayPlanRead(b *testing.B) {
	tier := newPlanTier(b, 80, 50)
	for _, q := range tier.reqs {
		submit(b, tier.base, q)
	}
	last := tier.reqs[len(tier.reqs)-1]
	tier.advance(b, last.Start)

	w := &discardWriter{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
	read := func() {
		w.code = 0
		tier.gw.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d, want 200", w.code)
		}
	}
	for i := 0; i < 8; i++ { // fill the pools and the transport's connections
		read()
	}
	b.Run("unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
	at := last.Start
	b.Run("after_commit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			at = at.Add(10 * simtime.Minute)
			for _, q := range tier.reqs[:3] {
				q.Start = at.Add(simtime.Hour)
				submit(b, tier.base, q)
			}
			tier.advance(b, at)
			b.StartTimer()
			read()
		}
		b.StopTimer()
		if st := tier.gw.Stats().Plan; st.Merges < uint64(b.N) || st.ShardDecodes < 3*uint64(b.N) {
			b.Fatalf("plan stats %+v after %d commits: every read must have decoded and merged", st, b.N)
		}
	})
}
