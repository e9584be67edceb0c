package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// A WAL poll from a caught-up follower is held until the next record or one
// hold; every other poll is answered at once, and a held one is answered
// whole again when the hold ends, leadership included. Each case runs on a
// fresh primary holding loadPrimary's three records, and the poll is a raw
// GET carrying after=3 unless the case says otherwise.
func TestFailoverWALPollHold(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fence := func(t *testing.T, p *Server, url string) {
		t.Helper()
		if code, b := replyBytes(t, http.MethodPost, url+"/v1/replication/fence",
			fmt.Sprintf(`{"epoch":%d}`, p.lead.Epoch()+1)); code != http.StatusOK {
			t.Fatalf("fence: %d %s", code, b)
		}
	}
	for _, c := range []struct {
		name     string
		inMemory bool
		query    func(last uint64, crc uint32) string
		before   func(t *testing.T, p *Server, url string) // before the poll is sent
		during   func(t *testing.T, p *Server, url string) // 50 ms into the poll
		wantCode int
		wantErr  string   // in the refusal, for a non-200
		wantSeqs []uint64 // the batch's records, for a 200
		held     bool     // answered no sooner than one hold, else well within one
	}{
		{name: "behind: answered at once with the tail",
			query:    func(last uint64, _ uint32) string { return fmt.Sprintf("after=%d&epoch=1", last-1) },
			wantCode: http.StatusOK, wantSeqs: []uint64{3}},
		{name: "caught up and idle: held one hold, then answered caught up",
			wantCode: http.StatusOK, held: true},
		{name: "caught up: the same poll carries the record journaled during the hold",
			during: func(t *testing.T, _ *Server, url string) {
				q := f.Requests[2]
				if code, b := replyBytes(t, http.MethodPost, url+"/v1/reservations",
					fmt.Sprintf(`{"user":%d,"video":%d,"start":%d}`, q.User, q.Video, q.Start)); code != http.StatusAccepted {
					t.Errorf("reservation: %d %s", code, b)
				}
			},
			wantCode: http.StatusOK, wantSeqs: []uint64{4}},
		{name: "caught up, fenced during the hold: refused as stale when the hold ends",
			during:   fence,
			wantCode: http.StatusConflict, wantErr: api.StaleLeadership, held: true},
		{name: "caught up but diverged at the last seq: refused at once",
			query: func(last uint64, crc uint32) string {
				return fmt.Sprintf("after=%d&epoch=1&crc=%d", last, crc^1)
			},
			wantCode: http.StatusConflict, wantErr: api.Diverged},
		{name: "fenced before the poll: refused at once",
			before:   fence,
			wantCode: http.StatusConflict, wantErr: api.StaleLeadership},
		{name: "not durable: refused at once", inMemory: true,
			query:    func(uint64, uint32) string { return "after=0&epoch=1" },
			wantCode: http.StatusNotImplemented, wantErr: "durable primary"},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{DataDir: t.TempDir(), Horizon: replCfg()}
			if c.inMemory {
				opts.DataDir = ""
			}
			p := mustNew(t, f, opts)
			ts := httptest.NewServer(p)
			t.Cleanup(ts.Close)
			last, crc := uint64(0), uint32(0)
			if !c.inMemory {
				loadPrimary(t, f, ts.URL)
				last, crc, _ = p.horizon.ResumePoint()
			}
			query := fmt.Sprintf("after=%d&epoch=1&crc=%d", last, crc)
			if c.query != nil {
				query = c.query(last, crc)
			}
			if c.before != nil {
				c.before(t, p, ts.URL)
			}

			type reply struct {
				code    int
				body    string
				elapsed time.Duration
				err     error
			}
			got := make(chan reply, 1)
			began := time.Now()
			go func() {
				resp, err := http.Get(ts.URL + "/v1/replication/wal?" + query)
				if err != nil {
					got <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				got <- reply{resp.StatusCode, string(b), time.Since(began), err}
			}()
			if c.during != nil {
				time.Sleep(50 * time.Millisecond)
				c.during(t, p, ts.URL)
			}
			r := <-got
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.code != c.wantCode {
				t.Fatalf("status %d (%s), want %d", r.code, r.body, c.wantCode)
			}
			if c.held && r.elapsed < replHold {
				t.Errorf("answered after %v, before the hold of %v ended", r.elapsed, replHold)
			}
			if !c.held && r.elapsed >= replHold {
				t.Errorf("answered after %v, want well within the hold of %v", r.elapsed, replHold)
			}
			if c.wantCode != http.StatusOK {
				if !strings.Contains(r.body, c.wantErr) {
					t.Errorf("refusal %s, want one saying %q", r.body, c.wantErr)
				}
				return
			}
			var batch api.Batch
			if err := json.Unmarshal([]byte(r.body), &batch); err != nil {
				t.Fatal(err)
			}
			var seqs []uint64
			for _, rec := range batch.Records {
				seqs = append(seqs, rec.Seq)
			}
			if fmt.Sprint(seqs) != fmt.Sprint(c.wantSeqs) {
				t.Errorf("batch %s: records %v, want %v", r.body, seqs, c.wantSeqs)
			}
		})
	}
}

// A round never spins: against a primary that answers every poll at once —
// an older one that does not hold, one refusing as not primary, one failing
// — Run sends about one poll a hold, not a hot loop of them.
func TestFailoverShipperPacing(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		reply func(w http.ResponseWriter)
	}{
		{"empty batch at once", func(w http.ResponseWriter) {
			httpkit.WriteJSON(w, http.StatusOK, api.Batch{LeaderEpoch: 1})
		}},
		{"409 not primary", func(w http.ResponseWriter) {
			httpkit.WriteErr(w, http.StatusConflict, ErrStaleLeadership)
		}},
		{"500", func(w http.ResponseWriter) {
			httpkit.WriteErr(w, http.StatusInternalServerError, errors.New("broken"))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var polls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				polls.Add(1)
				c.reply(w)
			}))
			t.Cleanup(ts.Close)
			sh := NewShipper(horizon.New(f.Model, replCfg()), NewLeadership(RoleFollower, 0), ts.URL)
			const window = time.Second
			ctx, cancel := context.WithTimeout(context.Background(), window)
			defer cancel()
			sh.Run(ctx)
			if n, most := polls.Load(), int64(window/replHold)+1; n < 2 || n > most {
				t.Errorf("%d polls in %v, want 2 to %d (one a hold of %v, plus one)", n, window, most, replHold)
			}
		})
	}
}

// A primary that takes the connection and never answers shows up in the
// follower's status: each round's request has a deadline, so last_error is
// set within a few holds instead of staying empty while the shipper hangs.
func TestFailoverSilentPrimaryShowsInStatus(t *testing.T) {
	t.Parallel()
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	t.Cleanup(silent.Close)
	t.Cleanup(func() { close(release) })
	follower := mustNew(t, f, Options{Horizon: replCfg(), ReplicateFrom: silent.URL})
	fts := httptest.NewServer(follower)
	t.Cleanup(fts.Close)
	follower.StartReplication(context.Background())

	deadline := time.Now().Add(8 * replHold)
	for {
		_, st := getAs[api.ReplicationStatus](t, fts.URL+"/v1/replication/status")
		if st.LastError != "" {
			if !strings.Contains(st.LastError, silent.URL) {
				t.Errorf("last_error %q does not name the primary", st.LastError)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("last_error still empty after %v against a primary that never answers: %+v", 8*replHold, st)
		}
		time.Sleep(replHold / 5)
	}
}

// A reply that starts at once but streams slowly is not cut: a round's
// deadline covers the wait for the reply to start, not the body, so a
// snapshot over a slow link still syncs the standby. The primary here
// compacts every epoch, so a follower at seq 0 is shipped the full state,
// and a proxy in front of it trickles that reply over two reply timeouts.
func TestFailoverSlowReplyIsNotCut(t *testing.T) {
	t.Parallel()
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)
	loadPrimary(t, f, pts.URL)
	const chunks = 10
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(pts.URL + r.URL.RequestURI())
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		per := len(body)/chunks + 1
		for i := 0; i < len(body); i += per {
			w.Write(body[i:min(i+per, len(body))])
			w.(http.Flusher).Flush()
			time.Sleep(2 * shipReplyTimeout / chunks)
		}
	}))
	t.Cleanup(slow.Close)
	svc, err := horizon.Recover(t.TempDir(), f.Model, replCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	sh := NewShipper(svc, NewLeadership(RoleFollower, 0), slow.URL)

	began := time.Now()
	n, err := sh.Poll(context.Background())
	elapsed := time.Since(began)
	if err != nil {
		t.Fatalf("a reply streamed over %v was cut: %v", elapsed, err)
	}
	if elapsed < shipReplyTimeout {
		t.Fatalf("the reply took %v, within the reply timeout %v: the test shows nothing", elapsed, shipReplyTimeout)
	}
	if st := status(sh); n != 1 || st.SnapshotsInstalled != 1 || !st.CaughtUp || st.AppliedSeq != 3 {
		t.Fatalf("applied %d, status %+v: want the snapshot at seq 3 installed", n, st)
	}
}

// A planned promotion succeeds while the primary takes a steady stream of
// reservations, and the promoted standby holds every one the primary had
// acknowledged when the promotion was asked for. The drain stops once a
// round leaves the follower caught up: a drain that waited for a round
// shipping nothing would need a whole hold with no record journaled, which
// a primary taking a reservation every 10 ms never gives it.
func TestFailoverPlannedPromoteUnderIntake(t *testing.T) {
	t.Parallel()
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: replCfg()})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)
	standby := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: replCfg(), ReplicateFrom: pts.URL})
	sts := httptest.NewServer(standby)
	t.Cleanup(sts.Close)
	standby.StartReplication(context.Background())

	stop := make(chan struct{})
	intake := make(chan error, 1)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				intake <- nil
				return
			case <-tick.C:
			}
			resp, err := http.Post(pts.URL+"/v1/reservations", "application/json",
				strings.NewReader(`{"user":1,"video":0,"start":86400}`))
			if err != nil {
				intake <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				intake <- fmt.Errorf("reservation: status %d", resp.StatusCode)
				return
			}
		}
	}()
	time.Sleep(4 * replHold) // the standby ships under the load
	acked := primary.horizon.AppliedSeq()
	began := time.Now()
	resp := postJSON(t, sts.URL+"/v1/replication/promote", api.PromoteRequest{})
	elapsed := time.Since(began)
	close(stop)
	if err := <-intake; err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("planned promotion under intake: status %d after %v: %s", resp.StatusCode, elapsed, b)
	}
	prom := decode[api.PromoteResponse](t, resp)
	if prom.AppliedSeq < acked {
		t.Fatalf("promoted at seq %d; the primary had acknowledged up to seq %d before the promotion", prom.AppliedSeq, acked)
	}
	seq, crc, ok := standby.horizon.ResumePoint()
	if !ok || seq != prom.AppliedSeq {
		t.Fatalf("promoted node resumes at seq %d (crc known: %v), its promotion said %d", seq, ok, prom.AppliedSeq)
	}
	if _, err := primary.horizon.TailAfter(seq, &crc, 1); err != nil {
		t.Fatalf("promoted history differs from the primary's at seq %d: %v", seq, err)
	}
	t.Logf("promoted at seq %d (acknowledged %d when asked) in %v", seq, acked, elapsed)
}
