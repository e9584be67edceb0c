package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/api"
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
				api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, nil)
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
// shards' handlers, and whatever the gateway does with their replies.
// "unchanged" is read after read with no commit between — 36 of
// gateway_paced's 50 reads — and must cost nothing that grows with the
// plan. "after_commit" reads three shards that alternate, between reads and
// outside the timer, between that plan and the same plan with one more
// reservation committed on every shard, so every read finds all three
// schedules replaced and merges them, and every iteration does the same
// work at any b.N. `make bench-smoke` holds both lines to the figures in
// BENCH_scheduler.json.
func BenchmarkGatewayPlanRead(b *testing.B) {
	tier := newPlanTier(b, 80, 50)
	for _, q := range tier.reqs {
		submit(b, tier.base, q)
	}
	last := tier.reqs[len(tier.reqs)-1]
	tier.advance(b, last.Start)

	w := &discardWriter{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
	read := func(gw *gateway.Gateway) {
		w.code = 0
		gw.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d, want 200", w.code)
		}
	}
	for i := 0; i < 8; i++ { // fill the pools and the transport's connections
		read(tier.gw)
	}
	b.Run("unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			read(tier.gw)
		}
	})
	b.Run("after_commit", func(b *testing.B) {
		gw, flips := alternatingShards(b, tier.rig, tier.reqs)
		for i := 0; i < 8; i++ {
			read(gw)
		}
		start := gw.Stats().Plan
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, f := range flips {
				f.later.Store(!f.later.Load())
			}
			b.StartTimer()
			read(gw)
		}
		b.StopTimer()
		if st := gw.Stats().Plan; st.Merges-start.Merges != uint64(b.N) || st.ShardDecodes-start.ShardDecodes != 3*uint64(b.N) {
			b.Fatalf("plan stats %+v after %d flips from %+v: every read must have replaced three schedules and merged", st, b.N, start)
		}
	})
}

// flipShard answers as one of two servers, the later one while later is set.
type flipShard struct {
	earlier, laterSrv http.Handler
	later             atomic.Bool
}

func (f *flipShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.later.Load() {
		f.laterSrv.ServeHTTP(w, r)
		return
	}
	f.earlier.ServeHTTP(w, r)
}

// alternatingShards is a round-robin gateway over three flipShards. Shard i
// answers, earlier, as a server that committed reqs[j] for every j ≡ i mod 3
// up to the last start, and later as one that committed the same and then
// one more reservation an hour after it.
func alternatingShards(b *testing.B, r *testutil.Rig, reqs workload.Set) (*gateway.Gateway, []*flipShard) {
	call := func(h http.Handler, path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			b.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	}
	reserve := func(h http.Handler, q workload.Request) {
		call(h, "/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start, At: &q.Start})
	}
	last := reqs[len(reqs)-1].Start
	var shards []gateway.ShardConfig
	var flips []*flipShard
	for i := 0; i < 3; i++ {
		f := &flipShard{}
		for k, h := range []*http.Handler{&f.earlier, &f.laterSrv} {
			srv, err := server.NewWithOptions(r.Model, server.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			for j := i; j < len(reqs); j += 3 {
				reserve(srv, reqs[j])
			}
			call(srv, "/v1/advance", api.AdvanceRequest{To: last})
			if k == 1 {
				q := reqs[i]
				q.Start = last.Add(simtime.Hour)
				reserve(srv, q)
				call(srv, "/v1/advance", api.AdvanceRequest{To: last.Add(10 * simtime.Minute)})
			}
			*h = srv
		}
		ts := httptest.NewServer(f)
		b.Cleanup(ts.Close)
		flips = append(flips, f)
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: ts.URL})
	}
	gw, _ := startGateway(b, gateway.Config{Shards: shards, Retry: fastRetry})
	return gw, flips
}
