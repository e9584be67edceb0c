package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// replyBytes performs one request and returns the status and the reply's bytes.
func replyBytes(t *testing.T, method, url, payload string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// loadPrimary journals two reservations and one epoch close on a primary.
func loadPrimary(t *testing.T, f *testutil.Fig2, url string) {
	t.Helper()
	for _, q := range f.Requests[:2] {
		if code, b := replyBytes(t, http.MethodPost, url+"/v1/reservations",
			fmt.Sprintf(`{"user":%d,"video":%d,"start":%d}`, q.User, q.Video, q.Start)); code != http.StatusAccepted {
			t.Fatalf("reservation: %d %s", code, b)
		}
	}
	if code, b := replyBytes(t, http.MethodPost, url+"/v1/advance",
		fmt.Sprintf(`{"to":%d}`, 120*int64(simtime.Minute))); code != http.StatusOK {
		t.Fatalf("advance: %d %s", code, b)
	}
}

// The replication protocol's bodies, as the bytes a shard writes and reads:
// the WAL reply in its three forms, the fence a promoted standby sends its
// old primary and the reply it gets, and a follower's readiness.
func TestReplicationBodiesUnchanged(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: replCfg()})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)
	loadPrimary(t, f, pts.URL)

	for _, c := range []struct {
		name, query, want string
	}{
		{"records capped by max", "after=0&epoch=1&max=2",
			`{"leader_epoch":1,"last_seq":3,"records":[{"seq":1,"crc":962545948,"payload":"eyJvcCI6InN1Ym1pdCJ9"},{"seq":2,"crc":2847319661,"payload":"eyJvcCI6InN1Ym1pdCIsImF0Ijo1NDAwLCJ1c2VyIjoxLCJzdGFydCI6NTQwMH0="}]}` + "\n"},
		{"records after a point", "after=2&epoch=0",
			`{"leader_epoch":1,"last_seq":3,"records":[{"seq":3,"crc":2724836932,"payload":"eyJvcCI6ImFkdmFuY2UiLCJ0byI6NzIwMH0="}]}` + "\n"},
		{"caught up", "after=3&epoch=1", `{"leader_epoch":1,"last_seq":3}` + "\n"},
	} {
		if code, got := replyBytes(t, http.MethodGet, pts.URL+"/v1/replication/wal?"+c.query, ""); code != http.StatusOK || got != c.want {
			t.Errorf("%s: GET /v1/replication/wal?%s = %d\n%s\nwant\n%s", c.name, c.query, code, got, c.want)
		}
	}

	// A primary that compacts every epoch ships its state instead: the bytes
	// of its snapshot file, base64 in the reply.
	dir := t.TempDir()
	compacting := mustNew(t, f, Options{DataDir: dir, Horizon: horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}})
	cts := httptest.NewServer(compacting)
	t.Cleanup(cts.Close)
	loadPrimary(t, f, cts.URL)
	seq, snap, ok, err := wal.ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("snapshot file: present %v, err %v", ok, err)
	}
	want := fmt.Sprintf(`{"leader_epoch":1,"last_seq":%d,"snapshot":"%s","snapshot_seq":%d}`+"\n",
		seq, base64.StdEncoding.EncodeToString(snap), seq)
	if code, got := replyBytes(t, http.MethodGet, cts.URL+"/v1/replication/wal?after=0&epoch=1", ""); code != http.StatusOK || got != want {
		t.Errorf("snapshot: GET /v1/replication/wal = %d\n%s\nwant\n%s", code, got, want)
	}

	// A standby reaches the primary through a relay that keeps what a
	// fence carries each way.
	var mu sync.Mutex
	var fenceReq, fenceReply string
	relay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/fence" {
			primary.ServeHTTP(w, r)
			return
		}
		b, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(b))
		rec := httptest.NewRecorder()
		primary.ServeHTTP(rec, r)
		mu.Lock()
		fenceReq, fenceReply = string(b), rec.Body.String()
		mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(relay.Close)
	standby := mustNew(t, f, Options{
		DataDir:       t.TempDir(),
		Horizon:       replCfg(),
		ReplicateFrom: relay.URL,
	})
	sts := httptest.NewServer(standby)
	t.Cleanup(sts.Close)

	want = `{"ready":false,"reason":"replication not yet synced with primary","status":{"role":"follower","epoch":0,"applied_seq":0,"source":"` +
		relay.URL + `","lag":0,"synced":false,"caught_up":false,"records_applied":0,"snapshots_installed":0}}` + "\n"
	if code, got := replyBytes(t, http.MethodGet, sts.URL+"/readyz", ""); code != http.StatusServiceUnavailable || got != want {
		t.Errorf("unsynced follower: GET /readyz = %d\n%s\nwant\n%s", code, got, want)
	}
	standby.StartReplication(context.Background())
	want = `{"ready":true,"status":{"role":"follower","epoch":1,"applied_seq":3,"source":"` +
		relay.URL + `","primary_last_seq":3,"lag":0,"synced":true,"caught_up":true,"records_applied":3,"snapshots_installed":0}}` + "\n"
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		code, got := replyBytes(t, http.MethodGet, sts.URL+"/readyz", "")
		if code == http.StatusOK {
			if got != want {
				t.Errorf("caught-up follower: GET /readyz =\n%s\nwant\n%s", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never became ready: %d %s", code, got)
		}
	}

	code, got := replyBytes(t, http.MethodPost, sts.URL+"/v1/replication/promote", `{"fence_source":true}`)
	if want := `{"promoted":true,"epoch":2,"applied_seq":3,"source_fenced":true}` + "\n"; code != http.StatusOK || got != want {
		t.Errorf("promote: %d\n%s\nwant\n%s", code, got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := `{"epoch":2}`; fenceReq != want {
		t.Errorf("the fence a promoted standby sends reads\n%s\nwant\n%s", fenceReq, want)
	}
	if want := `{"fenced":true,"epoch":2}` + "\n"; fenceReply != want {
		t.Errorf("the fence reply reads\n%s\nwant\n%s", fenceReply, want)
	}
}
