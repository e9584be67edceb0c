package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// The failover property test, in the style of the horizon package's
// TestCrashRecoverEveryRecordBoundary: kill the primary at journal-record
// boundaries — under clean and faulty replication transports — promote
// the standby, finish the workload on it, and require the promoted node's
// final state to be byte-identical to an uninterrupted single-node run.

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

// op is one scripted operation; each journals exactly one WAL record, so
// op boundaries are record boundaries.
type op struct {
	submit bool
	at     simtime.Time
	req    workload.Request
	to     simtime.Time
}

// buildOps scripts the seeded workload: submissions in chronological
// order with an Advance closing each epoch.
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
			ops = append(ops, op{submit: true, at: reqs[next].Start, req: reqs[next]})
			next++
		}
		ops = append(ops, op{to: h})
	}
	return ops
}

// fingerprint captures everything a failover must preserve, as JSON so
// the comparison is byte-exact.
func fingerprint(t *testing.T, svc *horizon.Service) string {
	t.Helper()
	blob, err := json.Marshal(map[string]any{
		"committed": svc.Committed(),
		"epoch":     svc.Epoch(),
		"horizon":   svc.Horizon(),
		"cost":      svc.Cost(),
		"pending":   svc.Pending(),
		"accepted":  svc.Accepted(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func applyLocal(t *testing.T, svc *horizon.Service, o op) {
	t.Helper()
	var err error
	if o.submit {
		_, err = svc.Submit(o.at, o.req)
	} else {
		_, err = svc.Advance(context.Background(), o.to)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", o, err)
	}
}

// driveHTTP sends one op to a serving node as a client would.
func driveHTTP(t *testing.T, base string, o op) {
	t.Helper()
	ctx := context.Background()
	var opts retryhttp.Options
	var err error
	if o.submit {
		err = retryhttp.PostJSON(ctx, opts, base+"/v1/reservations",
			server.ReservationRequest{User: o.req.User, Video: o.req.Video, Start: o.req.Start}, nil)
	} else {
		err = retryhttp.PostJSON(ctx, opts, base+"/v1/advance", server.AdvanceRequest{To: o.to}, nil)
	}
	if err != nil {
		t.Fatalf("drive %+v: %v", o, err)
	}
}

// referenceRun replays every op on one uninterrupted in-memory service.
func referenceRun(t *testing.T, r *testutil.Rig, ops []op) string {
	t.Helper()
	ref := horizon.New(r.Model, horizon.Config{})
	for _, o := range ops {
		applyLocal(t, ref, o)
	}
	return fingerprint(t, ref)
}

// faultMode names a replication-transport fault pattern.
type faultMode string

const (
	faultNone      faultMode = "clean"
	faultBlackhole faultMode = "blackhole"
	faultDelay     faultMode = "delay"
	faultDuplicate faultMode = "duplicate"
)

// faultRT wraps a RoundTripper with deterministic fault injection:
// blackhole fails every other request at the transport layer (the retry
// loop must recover), delay adds latency, and duplicate re-delivers
// previously shipped records prepended to each batch (the applier must
// skip them idempotently).
type faultRT struct {
	base http.RoundTripper
	mode faultMode

	mu   sync.Mutex
	n    int
	seen []replica.Record
}

func (f *faultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	switch f.mode {
	case faultBlackhole:
		if n%2 == 1 {
			return nil, fmt.Errorf("faultRT: request %d blackholed", n)
		}
	case faultDelay:
		time.Sleep(time.Duration(n%3) * time.Millisecond)
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil || f.mode != faultDuplicate || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	// Duplicate delivery: replay the last few shipped records in front of
	// the fresh batch, preserving sequence order.
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	var batch replica.Batch
	if json.Unmarshal(body, &batch) == nil {
		f.mu.Lock()
		dup := append(append([]replica.Record(nil), f.seen...), batch.Records...)
		f.seen = append(f.seen, batch.Records...)
		if len(f.seen) > 8 {
			f.seen = f.seen[len(f.seen)-8:]
		}
		f.mu.Unlock()
		batch.Records = dup
		if reencoded, merr := json.Marshal(batch); merr == nil {
			body = reencoded
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// newFollower builds a durable follower service plus its shipper, with
// the given transport fault mode against the primary at base.
func newFollower(t *testing.T, r *testutil.Rig, cfg horizon.Config, base string, mode faultMode) (*horizon.Service, *replica.Shipper, *replica.Leadership) {
	t.Helper()
	svc, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lead := replica.NewLeadership(replica.RoleFollower, 0)
	client := &http.Client{Transport: &faultRT{base: http.DefaultTransport, mode: mode}}
	sh := replica.NewShipper(svc, lead, replica.ShipperConfig{
		Source: base,
		Retry:  retryhttp.Options{Client: client, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	return svc, sh, lead
}

func runFailover(t *testing.T, r *testutil.Rig, ops []op, boundary int, mode faultMode, want string) {
	t.Helper()
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := server.NewWithOptions(r.Model, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(primary)
	fsvc, sh, lead := newFollower(t, r, cfg, ts.URL, mode)
	defer fsvc.Close()

	for _, o := range ops[:boundary] {
		driveHTTP(t, ts.URL, o)
	}
	if err := sh.Drain(context.Background()); err != nil {
		t.Fatalf("drain at boundary %d: %v", boundary, err)
	}
	if st := sh.Status(); !st.Synced || !st.CaughtUp || st.Lag != 0 {
		t.Fatalf("follower not caught up after drain: %+v", st)
	}

	// The primary dies: only the standby's state survives.
	ts.Close()
	primary.Close()

	// Promotion re-applies the commit predicate to the replicated schedule
	// before the node takes leadership — the bar every applied epoch and
	// Recover already held it to.
	if err := fsvc.VerifyCommitted(); err != nil {
		t.Fatalf("promotion check at boundary %d: %v", boundary, err)
	}
	if _, err := lead.Promote(); err != nil {
		t.Fatal(err)
	}

	for _, o := range ops[boundary:] {
		applyLocal(t, fsvc, o)
	}
	if got := fingerprint(t, fsvc); got != want {
		t.Errorf("boundary %d (%s): promoted state differs from uninterrupted run:\n got %.200s...\nwant %.200s...",
			boundary, mode, got, want)
	}
}

// TestFailoverAtRecordBoundaries is the headline property: for every
// journal-record boundary (stride-sampled under fault modes and -short),
// killing the primary there and failing over to the standby yields a
// plan byte-identical to a run that never failed.
func TestFailoverAtRecordBoundaries(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(r, 3)
	want := referenceRun(t, r, ops)

	for _, mode := range []faultMode{faultNone, faultBlackhole, faultDelay, faultDuplicate} {
		t.Run(string(mode), func(t *testing.T) {
			stride := 1
			if mode != faultNone || testing.Short() {
				stride = 5
			}
			for i := 0; i <= len(ops); i += stride {
				t.Run(fmt.Sprintf("boundary=%d", i), func(t *testing.T) {
					runFailover(t, r, ops, i, mode, want)
				})
			}
			// Always include the final boundary: a failover with nothing
			// left to re-drive must still reproduce the whole plan.
			if (len(ops))%stride != 0 {
				t.Run(fmt.Sprintf("boundary=%d", len(ops)), func(t *testing.T) {
					runFailover(t, r, ops, len(ops), mode, want)
				})
			}
		})
	}
}

// recordingRT records the WAL-fetch URLs the shipper issues.
type recordingRT struct {
	base http.RoundTripper
	mu   sync.Mutex
	urls []string
}

func (rt *recordingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.urls = append(rt.urls, req.URL.String())
	rt.mu.Unlock()
	return rt.base.RoundTrip(req)
}

// A follower restarted mid-stream resumes shipping from its applied
// sequence — never from zero — and still converges byte-identically.
func TestFollowerRestartResumesMidStream(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(r, 3)
	want := referenceRun(t, r, ops)
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}

	primary, err := server.NewWithOptions(r.Model, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary)
	defer ts.Close()

	followerDir := t.TempDir()
	fsvc, err := horizon.Recover(followerDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lead := replica.NewLeadership(replica.RoleFollower, 0)
	sh := replica.NewShipper(fsvc, lead, replica.ShipperConfig{Source: ts.URL})

	// First half of the stream, then the follower process "restarts".
	half := len(ops) / 2
	for _, o := range ops[:half] {
		driveHTTP(t, ts.URL, o)
	}
	ctx := context.Background()
	if err := sh.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	applied := fsvc.AppliedSeq()
	if applied == 0 {
		t.Fatal("nothing applied before the restart")
	}
	if err := fsvc.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery reconstructs the applied position from the follower's own
	// journal; the fresh shipper must resume after it.
	re, err := horizon.Recover(followerDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.AppliedSeq() != applied {
		t.Fatalf("restart lost applied seq: %d, want %d", re.AppliedSeq(), applied)
	}
	rec := &recordingRT{base: http.DefaultTransport}
	sh2 := replica.NewShipper(re, replica.NewLeadership(replica.RoleFollower, 0), replica.ShipperConfig{
		Source: ts.URL,
		Retry:  retryhttp.Options{Client: &http.Client{Transport: rec}},
	})
	for _, o := range ops[half:] {
		driveHTTP(t, ts.URL, o)
	}
	if err := sh2.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	urls := append([]string(nil), rec.urls...)
	rec.mu.Unlock()
	if len(urls) == 0 {
		t.Fatal("no shipping requests recorded")
	}
	if !strings.Contains(urls[0], fmt.Sprintf("after=%d&", applied)) {
		t.Fatalf("restarted shipper resumed from %q, want after=%d", urls[0], applied)
	}
	for _, u := range urls {
		if strings.Contains(u, "after=0&") {
			t.Fatalf("restarted shipper re-fetched from zero: %q", u)
		}
	}
	if got := fingerprint(t, re); got != want {
		t.Fatal("restarted follower diverged from uninterrupted run")
	}
}

// A batch delivered twice applies exactly once: the second delivery is
// skipped record-by-record and leaves both state and counters untouched.
func TestDuplicateBatchDeliveryIdempotent(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(r, 2)
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := server.NewWithOptions(r.Model, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary)
	defer ts.Close()
	for _, o := range ops {
		driveHTTP(t, ts.URL, o)
	}

	fsvc, sh, _ := newFollower(t, r, cfg, ts.URL, faultNone)
	defer fsvc.Close()
	ctx := context.Background()
	var batch replica.Batch
	if err := retryhttp.GetJSON(ctx, retryhttp.Options{},
		ts.URL+"/v1/replication/wal?after=0&epoch=0&max=0", &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Records) != len(ops) {
		t.Fatalf("batch has %d records, want %d", len(batch.Records), len(ops))
	}

	n, err := sh.ApplyBatch(ctx, batch)
	if err != nil || n != len(ops) {
		t.Fatalf("first delivery applied %d (%v), want %d", n, err, len(ops))
	}
	before := fingerprint(t, fsvc)
	n, err = sh.ApplyBatch(ctx, batch)
	if err != nil || n != 0 {
		t.Fatalf("duplicate delivery applied %d (%v), want 0", n, err)
	}
	if got := fingerprint(t, fsvc); got != before {
		t.Fatal("duplicate delivery mutated state")
	}
	if st := sh.Status(); st.RecordsApplied != uint64(len(ops)) {
		t.Fatalf("RecordsApplied %d after duplicate delivery, want %d", st.RecordsApplied, len(ops))
	}
}

// A corrupted record on the wire must be refused before it reaches the
// applier.
func TestShipperRefusesCorruptRecord(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := server.NewWithOptions(r.Model, server.Options{DataDir: t.TempDir(), Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary)
	defer ts.Close()
	driveHTTP(t, ts.URL, op{submit: true, at: r.Requests[0].Start, req: r.Requests[0]})

	fsvc, sh, _ := newFollower(t, r, cfg, ts.URL, faultNone)
	defer fsvc.Close()
	ctx := context.Background()
	var batch replica.Batch
	if err := retryhttp.GetJSON(ctx, retryhttp.Options{},
		ts.URL+"/v1/replication/wal?after=0&epoch=0&max=0", &batch); err != nil {
		t.Fatal(err)
	}
	batch.Records[0].Payload[0] ^= 0xFF
	if _, err := sh.ApplyBatch(ctx, batch); err == nil {
		t.Fatal("corrupt record applied")
	}
	if fsvc.AppliedSeq() != 0 {
		t.Fatal("corrupt record advanced the applied sequence")
	}
}

// Replication from an in-memory primary is refused with a clear error:
// there is no journal to ship.
func TestShippingFromInMemoryPrimaryFails(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	primary, err := server.NewWithOptions(r.Model, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary)
	defer ts.Close()

	fsvc, sh, _ := newFollower(t, r, horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}, ts.URL, faultNone)
	defer fsvc.Close()
	_, err = sh.Poll(context.Background())
	if err == nil || !strings.Contains(err.Error(), "durable") {
		t.Fatalf("in-memory primary shipped: %v", err)
	}
}
