package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// planRig is the plan tests' rig: 120 reservations in chronological order on
// storages tight enough that SORP has victims to reschedule.
func planRig(t *testing.T) (*testutil.Rig, workload.Set) {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 2, RequestsPerUser: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	return r, reqs
}

func planBody(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /v1/plan: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("GET /v1/plan: Content-Length %q over a body of %s bytes", got, want)
	}
	return rec.Body.Bytes()
}

// uncachedPlanBody is the body as it is defined: api.PlanResponse through
// encoding/json, and the newline json.Encoder ends a value with.
func uncachedPlanBody(t *testing.T, s *Server) []byte {
	t.Helper()
	blob, err := json.Marshal(api.PlanResponse(s.horizon.Plan()))
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// submitThenAdvance posts reqs and closes an epoch after every fifth, the
// horizon an hour behind intake (as plan_consistency_test drives it);
// each runs after every reply.
func submitThenAdvance(t *testing.T, s *Server, reqs workload.Set, each func(res *api.EpochResult)) {
	t.Helper()
	post := func(path string, body, into any) {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s %s: status %d: %s", path, blob, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range reqs {
		var ack api.ReservationResponse
		post("/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, &ack)
		each(nil)
		if (i+1)%5 == 0 {
			var res api.EpochResult
			post("/v1/advance", api.AdvanceRequest{To: simtime.Max(0, q.Start.Add(-simtime.Hour))}, &res)
			each(&res)
		}
	}
}

// The plan body is put together from the committed schedule's kept encoding
// and must still be, byte for byte, what encoding/json makes of api.PlanResponse:
// after every submit (only pending moves, the kept bytes are served again)
// and after every one of 24 commits (a new schedule, encoded afresh).
func TestPlanBodyBytesUnchanged(t *testing.T) {
	r, reqs := planRig(t)
	s, err := NewWithOptions(r.Model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	check := func(when string) {
		t.Helper()
		if got, want := planBody(t, s), uncachedPlanBody(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: /v1/plan body differs from json.Marshal(PlanResponse):\n got %s\nwant %s", when, got, want)
		}
	}
	check("before anything is submitted")
	epochs, victims := 0, 0
	submitThenAdvance(t, s, reqs, func(res *api.EpochResult) {
		if res == nil {
			check("after a submit")
			return
		}
		epochs++
		victims += len(res.Victims)
		check("after a commit")
		check("on the second read after a commit")
	})
	if epochs != 24 || victims == 0 {
		t.Fatalf("fixture bug: %d epochs, %d victims; want 24 and SORP at work", epochs, victims)
	}
}

// aliasingWriter keeps the very slices it is handed, against io.Writer's
// rules, beside a copy of each: if the server ever wrote again into bytes
// it had already sent, the two would come apart.
type aliasingWriter struct {
	header        http.Header
	kept, aliased [][]byte
}

func (w *aliasingWriter) Header() http.Header { return w.header }
func (w *aliasingWriter) WriteHeader(int)     {}
func (w *aliasingWriter) Write(b []byte) (int, error) {
	w.aliased = append(w.aliased, b)
	w.kept = append(w.kept, bytes.Clone(b))
	return len(b), nil
}

// A reader that still holds a plan body — the server's own bytes, not a
// copy — across later commits holds what it was sent: valid JSON of the
// epoch it names. Readers poll while 24 epochs close; run under -race,
// where a write into kept bytes meets the readers' reads.
func TestPlanBodiesHeldAcrossCommits(t *testing.T) {
	r, reqs := planRig(t)
	s, err := NewWithOptions(r.Model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	done := make(chan struct{})
	var wg sync.WaitGroup
	held := make([][]*aliasingWriter, 2)
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := &aliasingWriter{header: make(http.Header)}
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
				held[g] = append(held[g], w)
			}
		}()
	}
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop() // also when the driver gives up with t.Fatal
	submitThenAdvance(t, s, reqs, func(*api.EpochResult) {})
	stop()

	epochs := make(map[int]bool)
	for _, ws := range held {
		for _, w := range ws {
			for i := range w.kept {
				if !bytes.Equal(w.aliased[i], w.kept[i]) {
					t.Fatalf("bytes the server had sent were written again:\n sent %s\n now  %s", w.kept[i], w.aliased[i])
				}
			}
			var plan api.PlanResponse
			if err := json.Unmarshal(bytes.Join(w.aliased, nil), &plan); err != nil || plan.Schedule == nil {
				t.Fatalf("a held body is no longer a plan: %v", err)
			}
			epochs[plan.Epoch] = true
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("the readers saw %d epochs; want bodies held across commits", len(epochs))
	}
}

// A follower's committed schedule changes without a commit of its own: by
// an installed snapshot, and by a replicated epoch. Its /v1/plan must serve
// the new schedule each time — the primary's body, byte for byte — not the
// encoding it kept from the read before.
func TestFollowerPlanFollowsItsState(t *testing.T) {
	r, reqs := planRig(t)
	primary, err := NewWithOptions(r.Model, Options{
		DataDir: t.TempDir(),
		Horizon: horizon.Config{SnapshotEvery: 2, Fsync: wal.FsyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	// A source makes the node a follower; its shipper is never started, so
	// the test ships by hand.
	follower, err := NewWithOptions(r.Model, Options{ReplicateFrom: "http://primary.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })

	empty := planBody(t, follower) // the follower now keeps the empty schedule's encoding

	// Two epochs on the primary end in a snapshot and an emptied journal,
	// so a follower at sequence 0 is sent the state whole.
	submitThenAdvance(t, primary, reqs[:10], func(*api.EpochResult) {})
	tail, err := primary.horizon.TailAfter(follower.horizon.AppliedSeq(), nil, 0)
	if err != nil || tail.Snapshot == nil {
		t.Fatalf("fixture bug: TailAfter = %+v, %v; want a snapshot", tail, err)
	}
	if err := follower.horizon.InstallSnapshot(tail.SnapshotSeq, tail.Snapshot); err != nil {
		t.Fatal(err)
	}
	installed := planBody(t, follower)
	if bytes.Equal(installed, empty) || !bytes.Equal(installed, planBody(t, primary)) {
		t.Fatalf("after a snapshot install the follower serves\n %s\nthe primary\n %s", installed, planBody(t, primary))
	}

	// A third epoch reaches the follower record by record.
	submitThenAdvance(t, primary, reqs[10:15], func(*api.EpochResult) {})
	tail, err = primary.horizon.TailAfter(follower.horizon.AppliedSeq(), nil, 0)
	if err != nil || len(tail.Records) != 6 {
		t.Fatalf("fixture bug: TailAfter = %+v, %v; want five submits and an advance", tail, err)
	}
	for _, rec := range tail.Records {
		if _, err := follower.horizon.ApplyReplicated(context.Background(), wal.Record{Seq: rec.Seq, Payload: rec.Payload}); err != nil {
			t.Fatal(err)
		}
	}
	replicated := planBody(t, follower)
	if bytes.Equal(replicated, installed) || !bytes.Equal(replicated, planBody(t, primary)) {
		t.Fatalf("after a replicated epoch the follower serves\n %s\nthe primary\n %s", replicated, planBody(t, primary))
	}
}
