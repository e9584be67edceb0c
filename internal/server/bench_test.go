package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// sink is a response writer that keeps the status and nothing else, and
// can be used again: what a reply costs net/http to send is not this
// package's to cut, so the benchmark leaves it out.
type sink struct {
	header http.Header
	code   int
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkReservationPath is what one reservation allocates on a durable
// shard between Server.ServeHTTP and the ack: every middleware layer, the
// body decode, Submit, the journal record and its frame, and the reply
// encoding. The request, its body reader and the response writer are
// reused (the body is handed back before each call: LimitBody rewraps it in
// place), so B/op is this repository's share alone (the intake's own
// growing Accepted and Pending included — that is what it keeps). The
// journal is not flushed per record; a flush allocates nothing.
// `make bench-smoke` holds B/op to the figure in BENCH_scheduler.json.
func BenchmarkReservationPath(b *testing.B) {
	f, err := testutil.NewFig2()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewWithOptions(f.Model, Options{
		DataDir: b.TempDir(),
		Horizon: horizon.Config{Fsync: wal.FsyncNever},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	payload := []byte(`{"user":1,"video":0,"start":86400}`)
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/reservations", nil)
	closer := io.NopCloser(body)
	w := &sink{header: make(http.Header)}
	post := func() {
		body.Reset(payload)
		req.Body = closer
		w.code = 0
		clear(w.header)
		srv.ServeHTTP(w, req)
		if w.code != http.StatusAccepted {
			b.Fatalf("status %d, want 202", w.code)
		}
	}
	for i := 0; i < 64; i++ { // fill the pools and grow the journal's buffers
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkStandbyApplyLag is how long an acknowledged reservation sits on
// a durable primary alone: the time from its 202 until a warm standby,
// shipping over loopback HTTP, has applied its seq. Only that wait is timed.
// Each rung first journals that many reservations on the primary, with
// snapshots off, so the rungs show what the journal's length costs a woken
// poll. Run it with a fixed count, e.g. `-bench StandbyApplyLag -benchtime 20x`.
func BenchmarkStandbyApplyLag(b *testing.B) {
	for _, journaled := range []int{0, 20000} {
		b.Run(fmt.Sprintf("journal=%d", journaled), func(b *testing.B) {
			benchmarkStandbyApplyLag(b, journaled)
		})
	}
}

func benchmarkStandbyApplyLag(b *testing.B, journaled int) {
	f, err := testutil.NewFig2()
	if err != nil {
		b.Fatal(err)
	}
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := NewWithOptions(f.Model, Options{DataDir: b.TempDir(), Horizon: cfg})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary)
	defer pts.Close()

	payload := []byte(`{"user":1,"video":0,"start":86400}`)
	reserve := func() {
		w := httptest.NewRecorder()
		primary.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/reservations", bytes.NewReader(payload)))
		if w.Code != http.StatusAccepted {
			b.Fatalf("status %d, want 202: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	for i := 0; i < journaled; i++ {
		reserve()
	}
	standby, err := NewWithOptions(f.Model, Options{DataDir: b.TempDir(), Horizon: cfg, ReplicateFrom: pts.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer standby.Close()
	standby.StartReplication(context.Background())

	lag := func() {
		reserve()
		seq := primary.horizon.AppliedSeq()
		b.StartTimer()
		for at := standby.horizon.AppliedSeq(); at < seq; at = standby.horizon.AppliedSeq() {
			<-standby.horizon.Journaled(at) // closed at the standby's next append
		}
		b.StopTimer()
	}
	for i := 0; i < 3; i++ { // the standby's first rounds: it catches up the journal
		lag()
	}
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		lag()
	}
}
