package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/units"
)

// GET /v1/plan and GET /v1/stats each answer from one reading of the
// horizon. Readers poll both while a driver submits and closes two dozen
// epochs: every plan body's (epoch, cost, delivery count) must be a tuple
// some EpochResult actually committed — never epoch N's schedule beside
// epoch N+1's cost — and a stats body's two epoch fields must agree. The
// gateway merges these per-shard bodies, so a torn one corrupts the merged
// plan. Run under -race: the plan is encoded from the live committed
// schedule while the next epoch is being planned.
func TestPlanAndStatsAreNeverTorn(t *testing.T) {
	r, reqs := planRig(t)
	s, err := NewWithOptions(r.Model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	call := func(method, path string, body, into any) int {
		var rd bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&rd).Encode(body); err != nil {
				t.Error(err)
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, &rd))
		if rec.Code/100 == 2 {
			if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
				t.Errorf("%s %s: %v", method, path, err)
			}
		}
		return rec.Code
	}

	type tuple struct {
		epoch      int
		cost       units.Money
		deliveries int
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	seen := make([][]tuple, 2)
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var plan api.PlanResponse
				if call("GET", "/v1/plan", nil, &plan) == http.StatusOK {
					seen[g] = append(seen[g], tuple{plan.Epoch, plan.Cost, plan.Schedule.NumDeliveries()})
				}
				var stats api.StatsResponse
				if call("GET", "/v1/stats", nil, &stats) == http.StatusOK && stats.Horizon.Epoch != stats.Shard.Epoch {
					t.Errorf("torn stats: horizon.epoch %d beside shard.epoch %d", stats.Horizon.Epoch, stats.Shard.Epoch)
				}
			}
		}()
	}

	// The driver reports failure as a value so the readers are always
	// stopped and joined before the test ends.
	committed := map[int]tuple{0: {}} // by plan epoch; epoch 0 is the empty plan
	drive := func() string {
		for i, q := range reqs {
			var ack api.ReservationResponse
			if code := call("POST", "/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, &ack); code != http.StatusAccepted {
				return fmt.Sprintf("reservation %d: status %d", i, code)
			}
			if (i+1)%5 != 0 {
				continue
			}
			// Lag the horizon an hour behind intake so epochs both freeze
			// a prefix and re-plan a window.
			to := simtime.Max(0, q.Start.Add(-simtime.Hour))
			var res api.EpochResult
			if code := call("POST", "/v1/advance", api.AdvanceRequest{To: to}, &res); code != http.StatusOK {
				return fmt.Sprintf("advance after reservation %d: status %d", i, code)
			}
			committed[res.Epoch+1] = tuple{res.Epoch + 1, res.Cost, i + 1}
		}
		return ""
	}
	failure := drive()
	close(done)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}

	if len(committed) < 21 {
		t.Fatalf("only %d epochs closed, want at least 20", len(committed)-1)
	}
	polls := 0
	for _, ts := range seen {
		polls += len(ts)
		for _, got := range ts {
			if want, ok := committed[got.epoch]; !ok || got != want {
				t.Fatalf("torn plan: read %+v, but epoch %d committed %+v", got, got.epoch, want)
			}
		}
	}
	if polls == 0 {
		t.Fatal("the readers never read a plan")
	}
}
