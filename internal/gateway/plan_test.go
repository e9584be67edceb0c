package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// The gateway's plan path keeps, per shard, the schedule bytes of the last
// reply beside what they decode to, and for the tier the merged schedule's
// encoding beside the shard schedules it was merged from (merge.go). These
// tests hold the body to the bytes the gateway answered before it kept
// anything, and the work to what changed since the last read.

// planTier is a round-robin gateway over three in-memory shards.
type planTier struct {
	rig  *testutil.Rig
	reqs workload.Set // chronological
	gw   *gateway.Gateway
	base string
	ids  []string
	urls []string
}

// tightGB is the storage size at which the shards' SORP has victims to
// reschedule; at 50 GB nothing overflows and thousands of reservations
// commit in one quick epoch.
const tightGB = 2

func newPlanTier(t testing.TB, requestsPerUser int, capacityGB float64) *planTier {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: capacityGB, RequestsPerUser: requestsPerUser, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier := &planTier{rig: r, reqs: append(workload.Set(nil), r.Requests...)}
	workload.SortChronological(tier.reqs)
	var shards []gateway.ShardConfig
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		tier.ids, tier.urls = append(tier.ids, fmt.Sprintf("s%d", i)), append(tier.urls, url)
		shards = append(shards, gateway.ShardConfig{ID: tier.ids[i], Primary: url})
	}
	tier.gw, tier.base = startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})
	return tier
}

// body is GET /v1/plan answered by the gateway's handler, no connection
// between.
func (tier *planTier) body(t *testing.T) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	tier.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /v1/plan: status %d, Content-Type %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Fatalf("GET /v1/plan: Content-Length %q over a body of %s bytes", got, want)
	}
	return rec.Body.Bytes()
}

// advance broadcasts one epoch close through the gateway.
func (tier *planTier) advance(t testing.TB, to simtime.Time) gateway.AdvanceResponse {
	t.Helper()
	var adv gateway.AdvanceResponse
	if err := retryhttp.PostJSON(context.Background(), fastRetry, tier.base+"/v1/advance",
		api.AdvanceRequest{To: to}, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Failed) != 0 || len(adv.Shards) != 3 {
		t.Fatalf("advance to %v: %d shard results, failures %+v", to, len(adv.Shards), adv.Failed)
	}
	return adv
}

// drive submits the tier's requests in order and closes an epoch after
// every fifth, the horizon an hour behind intake; each runs before and
// after every advance (res nil before) and after every reservation.
func (tier *planTier) drive(t *testing.T, reqs workload.Set, each func(when string, res *gateway.AdvanceResponse)) {
	t.Helper()
	for i, q := range reqs {
		submit(t, tier.base, q)
		each("after a reservation", nil)
		if (i+1)%5 == 0 {
			each("before an advance", nil)
			adv := tier.advance(t, simtime.Max(0, q.Start.Add(-simtime.Hour)))
			each("after an advance", &adv)
		}
	}
}

// referencePlanBody is the plan body as the gateway defined it before it
// kept anything: every shard's reply decoded whole into
// gateway.PlanResponse's fields, the schedules merged, and the union through
// encoding/json with the newline json.Encoder ends a value with. The
// decode-per-read path lives on here, as the oracle, and nowhere else. The
// schedules are decoded into, merged and encoded as the encoding's mirror, so
// the body owes nothing to the schedule encoder.
func referencePlanBody(t *testing.T, ids, urls []string) []byte {
	t.Helper()
	var out struct {
		Schedule *testutil.WireSchedule `json:"schedule"`
		api.PlanState
		Shards []gateway.ShardPlan `json:"shards"`
	}
	parts := make([]*testutil.WireSchedule, len(urls))
	for i, url := range urls {
		var p struct {
			Schedule *testutil.WireSchedule `json:"schedule"`
			api.PlanState
		}
		if err := retryhttp.GetJSON(context.Background(), fastRetry, url+"/v1/plan", &p); err != nil {
			t.Fatal(err)
		}
		parts[i] = p.Schedule
		if i == 0 || p.Horizon < out.Horizon {
			out.Horizon = p.Horizon
		}
		if p.Epoch > out.Epoch {
			out.Epoch = p.Epoch
		}
		out.Pending += p.Pending
		out.Cost += p.Cost
		out.Shards = append(out.Shards, gateway.ShardPlan{
			Shard: ids[i], Epoch: p.Epoch, Horizon: p.Horizon, Pending: p.Pending, Cost: p.Cost,
		})
	}
	out.Schedule = mergeSchedules(parts...)
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// (a) The body is assembled from kept encodings and must still be, byte for
// byte, json.Marshal(PlanResponse) plus a newline built from the shards'
// decoded replies: after every reservation (only pending moves, everything
// kept is served again) and around every one of 24 broadcast commits (new
// schedules, decoded, merged and encoded afresh).
func TestGatewayPlanBodyBytesUnchanged(t *testing.T) {
	tier := newPlanTier(t, 5, tightGB)
	check := func(when string) {
		t.Helper()
		if got, want := tier.body(t), referencePlanBody(t, tier.ids, tier.urls); !bytes.Equal(got, want) {
			t.Fatalf("%s: /v1/plan body differs from json.Marshal(PlanResponse):\n got %s\nwant %s", when, got, want)
		}
	}
	check("before anything is submitted")
	epochs, victims := 0, 0
	tier.drive(t, tier.reqs, func(when string, res *gateway.AdvanceResponse) {
		if res != nil {
			epochs++
			for _, se := range res.Shards {
				victims += len(se.Result.Victims)
			}
			check("on the first read " + when)
		}
		check(when)
	})
	if epochs < 12 || victims == 0 {
		t.Fatalf("fixture bug: %d epochs, %d victims; want at least 12 and SORP at work", epochs, victims)
	}
	st := tier.gw.Stats().Plan
	if st.Merges == 0 || st.Merges >= st.Reads/2 {
		t.Fatalf("plan stats %+v: want most reads served from the kept merge", st)
	}
}

// planWork is what the plan path did since the last call.
func planWork(gw *gateway.Gateway, last *gateway.PlanStats) (decodes, merges uint64) {
	now := gw.Stats().Plan
	decodes, merges = now.ShardDecodes-last.ShardDecodes, now.Merges-last.Merges
	*last = now
	return decodes, merges
}

// (b) A read costs what changed since the last one.
func TestGatewayPlanReadWork(t *testing.T) {
	tier := newPlanTier(t, 5, tightGB)
	var last gateway.PlanStats
	expect := func(when string, decodes, merges uint64) {
		t.Helper()
		tier.body(t)
		if d, m := planWork(tier.gw, &last); d != decodes || m != merges {
			t.Fatalf("%s: %d shard decodes and %d merges, want %d and %d", when, d, m, decodes, merges)
		}
	}
	expect("the first read, a miss on every shard", 3, 1)
	expect("a second read with no commit between", 0, 0)

	for _, q := range tier.reqs[:6] {
		submit(t, tier.base, q)
	}
	expect("a read after reservations alone", 0, 0)
	adv := tier.advance(t, simtime.Max(0, tier.reqs[5].Start.Add(-simtime.Hour)))
	for _, se := range adv.Shards {
		if se.Result.Admitted == 0 {
			t.Fatalf("fixture bug: shard %s committed nothing", se.Shard)
		}
	}
	expect("the read after a broadcast advance", 3, 1)
	expect("the read after that", 0, 0)

	// An epoch that reaches one shard only: closed at the shard, behind
	// the gateway's back.
	for _, q := range tier.reqs[6:12] {
		submit(t, tier.base, q)
	}
	var res api.EpochResult
	if err := retryhttp.PostJSON(context.Background(), fastRetry, tier.urls[1]+"/v1/advance",
		api.AdvanceRequest{To: simtime.Max(0, tier.reqs[11].Start.Add(-simtime.Hour))}, &res); err != nil || res.Admitted == 0 {
		t.Fatalf("advance at shard 1 alone: admitted %d, %v", res.Admitted, err)
	}
	expect("the read after one shard's commit", 1, 1)
	if got, want := tier.body(t), referencePlanBody(t, tier.ids, tier.urls); !bytes.Equal(got, want) {
		t.Fatalf("after one shard's commit the body is\n %s\nwant\n %s", got, want)
	}
	if st := gatewayStats(t, tier.base).Plan; st.Reads != 7 || st.ShardDecodes != 7 || st.Merges != 3 {
		t.Fatalf("/v1/stats plan block %+v, want 7 reads, 7 shard decodes, 3 merges", st)
	}
}

// stubShard answers /v1/plan with whatever body it currently holds, or the
// status it was told to fail with.
type stubShard struct {
	body atomic.Pointer[string]
	fail atomic.Int32
}

func (s *stubShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if code := int(s.fail.Load()); code != 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		io.WriteString(w, `{"error":"stub says no"}`)
		return
	}
	io.WriteString(w, *s.body.Load())
}

func startStub(t *testing.T, body string) (*stubShard, string) {
	t.Helper()
	s := &stubShard{}
	s.body.Store(&body)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// (c) The validator is the bytes of the schedule, not who sent them nor the
// epoch they came under. A promoted standby serving the identical plan is a
// hit on its first read.
func TestGatewayPlanHitAcrossFailover(t *testing.T) {
	r := testRig(t)
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primaryURL, _, _ := startShard(t, r, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	standbyURL, standby, _ := startShard(t, r, server.Options{
		DataDir: t.TempDir(), Horizon: cfg,
		ReplicateFrom: primaryURL,
	})
	ctx := context.Background()
	standby.StartReplication(ctx)
	gw, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: primaryURL, Standby: standbyURL}},
		Retry:  fastRetry,
	})
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	for _, req := range reqs[:3] {
		submit(t, base, req)
	}
	if err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance",
		api.AdvanceRequest{To: reqs[2].Start.Add(simtime.Hour)}, nil); err != nil {
		t.Fatal(err)
	}
	var last gateway.PlanStats
	before := planFingerprint(t, base)
	if d, m := planWork(gw, &last); d != 1 || m != 1 {
		t.Fatalf("first read of the committed plan: %d decodes, %d merges, want 1 and 1", d, m)
	}
	waitReady(t, standbyURL)
	waitCaughtUp(t, primaryURL, standbyURL)

	if err := retryhttp.PostJSON(ctx, fastRetry, primaryURL+"/v1/replication/fence",
		api.FenceRequest{Epoch: 2}, nil); err != nil {
		t.Fatal(err)
	}
	late := reqs[len(reqs)-1]
	submit(t, base, late) // hits the fenced primary, fails over, retries
	if st := gw.Stats(); st.Failovers != 1 || st.Shards[0].Primary != standbyURL {
		t.Fatalf("after the fence: %d failovers, primary %q; want the promoted standby %q", st.Failovers, st.Shards[0].Primary, standbyURL)
	}
	var fromPrimary, fromStandby struct {
		Schedule json.RawMessage `json:"schedule"`
	}
	for url, into := range map[string]any{primaryURL: &fromPrimary, standbyURL: &fromStandby} {
		if err := retryhttp.GetJSON(ctx, fastRetry, url+"/v1/plan", into); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fromPrimary.Schedule, fromStandby.Schedule) {
		t.Fatalf("fixture bug: the standby's schedule bytes differ from the primary's")
	}
	after := planFingerprint(t, base)
	if d, m := planWork(gw, &last); d != 0 || m != 0 {
		t.Fatalf("first read from the promoted standby: %d decodes, %d merges, want a hit", d, m)
	}
	if want := strings.Replace(before, `"pending":0`, `"pending":1`, 1); after != want {
		t.Fatalf("the plan moved across the failover:\n before %s\n after  %s", before, after)
	}
}

// (c, e) A shard that answers a different schedule under the same epoch is
// a miss and the merged body follows it; "schedule":null merges as nothing;
// a malformed reply is a 502 naming the shard; and a failed read leaves the
// kept values where they were.
func TestGatewayPlanFollowsTheBytes(t *testing.T) {
	tier := newPlanTier(t, 1, tightGB)
	for _, q := range tier.reqs[:6] {
		submit(t, tier.base, q)
	}
	tier.advance(t, tier.reqs[5].Start.Add(simtime.Hour))

	// The stub plays a fourth shard with shard 0's plan, then shard 1's,
	// both under epoch 7.
	scheduleOf := func(url string) string {
		var p struct {
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := retryhttp.GetJSON(context.Background(), fastRetry, url+"/v1/plan", &p); err != nil {
			t.Fatal(err)
		}
		return string(p.Schedule)
	}
	reply := func(sched string) string {
		return `{"schedule":` + sched + `,"horizon":3600,"epoch":7,"pending":2,"cost":12.5}` + "\n"
	}
	first, second := scheduleOf(tier.urls[0]), scheduleOf(tier.urls[1])
	if first == second {
		t.Fatal("fixture bug: shards 0 and 1 committed the same schedule")
	}
	stub, stubURL := startStub(t, reply("null"))
	ids, urls := append([]string{"stub"}, tier.ids...), append([]string{stubURL}, tier.urls...)
	var shards []gateway.ShardConfig
	for i := range ids {
		shards = append(shards, gateway.ShardConfig{ID: ids[i], Primary: urls[i]})
	}
	gw, _ := startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
		return rec
	}
	var last gateway.PlanStats
	expect := func(when string, decodes, merges uint64) {
		t.Helper()
		rec := get()
		if want := referencePlanBody(t, ids, urls); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: status %d, body\n %s\nwant\n %s", when, rec.Code, rec.Body.Bytes(), want)
		}
		if d, m := planWork(gw, &last); d != decodes || m != merges {
			t.Fatalf("%s: %d shard decodes and %d merges, want %d and %d", when, d, m, decodes, merges)
		}
	}
	expect("a null schedule beside three real ones", 4, 1)
	serving := "null"
	for _, sched := range []string{first, second, second, "null"} {
		same := sched == serving
		serving = sched
		body := reply(sched)
		stub.body.Store(&body)
		if same {
			expect("the same schedule again", 0, 0)
		} else {
			expect("another schedule under the same epoch", 1, 1)
		}
	}

	body := reply(first)
	stub.body.Store(&body)
	expect("a real schedule before the failures", 1, 1)
	refuse := func(when, wantIn string) {
		t.Helper()
		rec := get()
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body %q: %v", when, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusBadGateway || e["shard"] != "stub" || !strings.Contains(e["error"], wantIn) {
			t.Fatalf("%s: status %d, body %v; want a 502 naming the stub and %q", when, rec.Code, e, wantIn)
		}
		if d, m := planWork(gw, &last); d != 0 || m != 0 {
			t.Fatalf("%s: %d shard decodes and %d merges on a failed read", when, d, m)
		}
	}
	for when, bad := range map[string]string{
		"a truncated reply":                `{"schedule":{"files":`,
		"a second value after the plan":    reply(first) + `{}`,
		"a schedule that is no object":     reply(`[1,2]`),
		"a null file":                      reply(`{"files":{"5":null}}`),
		"a file keyed under another video": reply(`{"files":{"5":{"video":6,"deliveries":[],"residencies":[]}}}`),
		"whitespace in the schedule":       reply(`{"files": {}}`),
		"bytes after the schedule":         reply(`{"files":{}}}`),
	} {
		stub.body.Store(&bad)
		refuse(when, "shard stub: retryhttp: decode GET "+stubURL+"/v1/plan reply: ")
	}
	stub.fail.Store(http.StatusBadGateway)
	refuse("an upstream 502", "stub says no")
	stub.fail.Store(0)
	stub.body.Store(&body)
	expect("the kept values after four failed reads", 0, 0)
}

// aliasingWriter keeps the very slices it is handed, against io.Writer's
// rules, beside a copy of each: if the gateway ever wrote again into bytes
// it had already sent, the two would come apart. With hold set it stops
// inside its second Write — the kept merged schedule — until released.
type aliasingWriter struct {
	header        http.Header
	kept, aliased [][]byte
	hold, release chan struct{}
}

func (w *aliasingWriter) Header() http.Header { return w.header }
func (w *aliasingWriter) WriteHeader(int)     {}
func (w *aliasingWriter) Write(b []byte) (int, error) {
	w.aliased = append(w.aliased, b)
	w.kept = append(w.kept, bytes.Clone(b))
	if w.hold != nil && len(w.kept) == 2 {
		close(w.hold)
		<-w.release
	}
	return len(b), nil
}

func (w *aliasingWriter) intact(t *testing.T) []byte {
	t.Helper()
	for i := range w.kept {
		if !bytes.Equal(w.aliased[i], w.kept[i]) {
			t.Fatalf("bytes the gateway had sent were written again:\n sent %s\n now  %s", w.kept[i], w.aliased[i])
		}
	}
	return bytes.Join(w.aliased, nil)
}

// (d) A reader that stops mid-body while three commits replace every kept
// value receives exactly the body it started on.
func TestGatewayPlanBodyHeldAcrossCommits(t *testing.T) {
	tier := newPlanTier(t, 5, tightGB)
	tier.drive(t, tier.reqs[:10], func(string, *gateway.AdvanceResponse) {})
	want := referencePlanBody(t, tier.ids, tier.urls)

	w := &aliasingWriter{header: make(http.Header), hold: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tier.gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	}()
	<-w.hold
	var last gateway.PlanStats
	planWork(tier.gw, &last)
	commits := 0
	tier.drive(t, tier.reqs[10:25], func(_ string, res *gateway.AdvanceResponse) {
		if res != nil {
			commits++
			tier.body(t) // replaces the kept values the held reply is made of
		}
	})
	if d, m := planWork(tier.gw, &last); commits != 3 || m != 3 || d < 3 {
		t.Fatalf("fixture bug: %d commits, %d merges, %d shard decodes behind the held reader; want 3, 3 and at least 3", commits, m, d)
	}
	close(w.release)
	<-done
	if got := w.intact(t); !bytes.Equal(got, want) {
		t.Fatalf("the held reader received\n %s\nit started on\n %s", got, want)
	}
}

// (d) Readers that poll while 24 epochs close never see a torn or mixed
// plan: every body is the bytes it was sent as, one JSON value, and its
// schedule is the merge of the very shard plans its small fields were
// summed from — Ψ of the schedule is the cost beside it, which a kept merge
// served under newer fields, or the reverse, would break. Run under -race,
// where a write into kept bytes meets the readers' reads.
func TestGatewayPlanReadersDuringAdvances(t *testing.T) {
	tier := newPlanTier(t, 5, tightGB)
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	held := make([][]*aliasingWriter, 2)
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopped:
					return
				default:
				}
				w := &aliasingWriter{header: make(http.Header)}
				tier.gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
				held[g] = append(held[g], w)
			}
		}()
	}
	stop := sync.OnceFunc(func() { close(stopped); wg.Wait() })
	defer stop() // also when the driver gives up with t.Fatal
	tier.drive(t, tier.reqs, func(string, *gateway.AdvanceResponse) {})
	stop()

	epochs := make(map[int]bool)
	for _, ws := range held {
		for _, w := range ws {
			var plan gateway.PlanResponse
			if err := json.Unmarshal(w.intact(t), &plan); err != nil || plan.Schedule == nil {
				t.Fatalf("a held body is no longer a plan: %v", err)
			}
			psi := float64(tier.rig.Model.ScheduleCost(plan.Schedule))
			if diff := psi - float64(plan.Cost); diff > 1e-9*psi || diff < -1e-9*psi {
				t.Fatalf("a mixed plan: Ψ(schedule) = %.6f beside cost %.6f at epoch %d", psi, float64(plan.Cost), plan.Epoch)
			}
			epochs[plan.Epoch] = true
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("the readers saw %d epochs; want bodies read across commits", len(epochs))
	}
}

// discardWriter is a response writer that keeps the status and nothing
// else, so what a read allocates is what the tier allocates.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// (f) An unchanged read allocates what three loopback round trips and the
// small fields cost and nothing that grows with the plan: under 32 KB and
// 400 allocations through Gateway.ServeHTTP, shard handlers and transport
// included (measured: 20.6 KB and 275), at a plan of 24 reservations and at
// one of 1 920 whose body alone is five times the bound. Decode-per-read is
// two orders of magnitude over both at the larger size.
func TestGatewayPlanUnchangedReadAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 32 << 10, 400
	var sizes []int
	for _, perUser := range []int{1, 80} {
		tier := newPlanTier(t, perUser, 50)
		for _, q := range tier.reqs {
			submit(t, tier.base, q)
		}
		tier.advance(t, tier.reqs[len(tier.reqs)-1].Start.Add(simtime.Hour))
		sizes = append(sizes, len(tier.body(t)))

		w := &discardWriter{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
		read := func() { tier.gw.ServeHTTP(w, req) }
		for i := 0; i < 5; i++ {
			read() // fills the pools and the transport's connections
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		perRead := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("plan of %d bytes: %d B and %d allocations per unchanged read", sizes[len(sizes)-1], perRead, allocs)
		if allocs > maxAllocs {
			t.Errorf("plan of %d bytes: %d allocations per unchanged read, want at most %d", sizes[len(sizes)-1], allocs, maxAllocs)
		}
		if perRead > maxBytes && !testutil.RaceBuild() {
			t.Errorf("plan of %d bytes: %d B per unchanged read, want at most %d", sizes[len(sizes)-1], perRead, maxBytes)
		}
	}
	if sizes[1] < 4*maxBytes || sizes[1] < 4*sizes[0] {
		t.Fatalf("fixture bug: plans of %d and %d bytes; the larger must dwarf the bound and the smaller", sizes[0], sizes[1])
	}
}
