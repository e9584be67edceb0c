package replica_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/chaos"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// The shipper under a chaotic replication link: a flapping partition,
// torn WAL-fetch bodies, and jittery latency, with a poller restart in
// the middle. The poller must keep making progress through the fault
// windows, resume from AppliedSeq after the restart (never from zero),
// and converge with every record applied exactly once.
func TestShipperSurvivesFlappingChaosAndResumes(t *testing.T) {
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
	host := strings.TrimPrefix(ts.URL, "http://")

	// Chaos lives only on the replication path and only for a bounded
	// window, so the final drain is guaranteed a clean link. Within the
	// window: the link flaps at a 50% duty cycle, almost a third of the
	// fetched bodies tear mid-JSON, and everything is a little slow.
	chaosFor := 700 * time.Millisecond
	inj := chaos.New(31,
		chaos.Rule{Host: host, Path: "/v1/replication/wal", Until: chaosFor,
			Period: 40 * time.Millisecond, Duty: 0.5, Fault: chaos.Fault{Drop: 1}},
		chaos.Rule{Host: host, Path: "/v1/replication/wal", Until: chaosFor,
			Fault: chaos.Fault{CutProb: 0.3, CutAfter: 20}},
		chaos.Rule{Host: host, Path: "/v1/replication/wal", Until: chaosFor,
			Fault: chaos.Fault{LatencyMax: 2 * time.Millisecond}},
	)
	chaosClient := &http.Client{Transport: &chaos.Transport{Injector: inj}}
	retry := retryhttp.Options{
		Client:      chaosClient,
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
	}

	fsvc, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fsvc.Close()
	lead := replica.NewLeadership(replica.RoleFollower, 0)
	sh1 := replica.NewShipper(fsvc, lead, replica.ShipperConfig{
		Source: ts.URL, Interval: 2 * time.Millisecond, Retry: retry,
	})
	ctx := context.Background()
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); sh1.Run(runCtx) }()

	// First half of the stream arrives while the link is misbehaving.
	half := len(ops) / 2
	for _, o := range ops[:half] {
		driveHTTP(t, ts.URL, o)
	}
	// The flap's up-phases must let some records through before the
	// poller "process" restarts.
	progress := time.Now().Add(10 * time.Second)
	for fsvc.AppliedSeq() == 0 {
		if time.Now().After(progress) {
			t.Fatalf("no replication progress through the flapping link: %+v, chaos %+v",
				sh1.Status(), inj.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	// Restart: a fresh shipper over the same service must resume from
	// the applied sequence, not refetch from zero.
	resumeSeq := fsvc.AppliedSeq()
	rec := &recordingRT{base: &chaos.Transport{Injector: inj}}
	sh2 := replica.NewShipper(fsvc, lead, replica.ShipperConfig{
		Source:   ts.URL,
		Interval: 2 * time.Millisecond,
		Retry: retryhttp.Options{
			Client:      &http.Client{Transport: rec},
			MaxAttempts: 2,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	})
	runCtx2, cancel2 := context.WithCancel(ctx)
	done2 := make(chan struct{})
	go func() { defer close(done2); sh2.Run(runCtx2) }()

	for _, o := range ops[half:] {
		driveHTTP(t, ts.URL, o)
	}

	// Let the chaos window expire fully, stop the background poller, and
	// drain over the now-clean link.
	if remaining := chaosFor - inj.Elapsed(); remaining > 0 {
		time.Sleep(remaining + 50*time.Millisecond)
	}
	cancel2()
	<-done2
	if err := sh2.Drain(ctx); err != nil {
		t.Fatalf("post-chaos drain: %v", err)
	}

	// No gaps: every op applied, the follower is caught up.
	if got := fsvc.AppliedSeq(); got != uint64(len(ops)) {
		t.Fatalf("applied seq %d, want %d", got, len(ops))
	}
	st := sh2.Status()
	if !st.Synced || !st.CaughtUp || st.Lag != 0 {
		t.Fatalf("not caught up after chaos cleared: %+v", st)
	}
	// No duplicates: the two pollers' apply counts partition the stream
	// exactly — torn and duplicated deliveries were all skipped by seq.
	applied := sh1.Status().RecordsApplied + st.RecordsApplied
	if applied != uint64(len(ops)) {
		t.Fatalf("records applied %d across both pollers, want exactly %d", applied, len(ops))
	}

	// The restarted poller's first fetch resumed after resumeSeq.
	rec.mu.Lock()
	urls := append([]string(nil), rec.urls...)
	rec.mu.Unlock()
	if len(urls) == 0 {
		t.Fatal("restarted shipper never fetched")
	}
	if !strings.Contains(urls[0], fmt.Sprintf("after=%d&", resumeSeq)) {
		t.Fatalf("restarted shipper resumed from %q, want after=%d", urls[0], resumeSeq)
	}
	if resumeSeq > 0 {
		for _, u := range urls {
			if strings.Contains(u, "after=0&") {
				t.Fatalf("restarted shipper refetched from zero: %q", u)
			}
		}
	}

	// The replicated state matches an uninterrupted run byte-for-byte,
	// and the chaos layer actually exercised its fault modes.
	if got := fingerprint(t, fsvc); got != want {
		t.Errorf("chaos-replicated state differs from uninterrupted run:\n got %.200s...\nwant %.200s...", got, want)
	}
	if s := inj.Stats(); s.Dropped == 0 {
		t.Errorf("flapping rule never dropped: %+v", s)
	}
}
