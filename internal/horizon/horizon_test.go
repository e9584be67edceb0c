package horizon_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

func rig(t *testing.T, p testutil.Params) *testutil.Rig {
	t.Helper()
	r, err := testutil.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// smallParams is tight enough to force SORP activity, so the property tests
// exercise the resolution path, not only the greedy.
func smallParams() testutil.Params {
	return testutil.Params{
		Storages:        6,
		UsersPerStorage: 5,
		Titles:          25,
		CapacityGB:      2,
		Seed:            42,
	}
}

// With every reservation submitted in epoch 0 and the horizon left at zero,
// nothing freezes and the incremental pipeline must be byte-identical to
// the one-shot scheduler: same record set, same Ψ(S).
func TestEpochZeroByteIdentity(t *testing.T) {
	r := rig(t, smallParams())

	svc := horizon.New(r.Model, horizon.Config{})
	for _, req := range r.Requests {
		if _, err := svc.Submit(0, req); err != nil {
			t.Fatalf("submit %+v: %v", req, err)
		}
	}
	res, err := svc.Advance(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	out, err := scheduler.Schedule(context.Background(), r.Model, r.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}

	if res.Cost != out.FinalCost {
		t.Errorf("incremental cost %v, one-shot cost %v", res.Cost, out.FinalCost)
	}
	got, want := svc.Committed(), out.Schedule
	if !reflect.DeepEqual(got, want) {
		for _, vid := range want.VideoIDs() {
			if !reflect.DeepEqual(got.File(vid), want.File(vid)) {
				t.Fatalf("video %d differs:\nincremental %+v\none-shot    %+v", vid, got.File(vid), want.File(vid))
			}
		}
		t.Fatalf("schedules differ structurally: got %d files, want %d", len(got.Files), len(want.Files))
	}
	if res.Admitted != len(r.Requests) || res.Replanned != 0 || res.FrozenDeliveries != 0 {
		t.Errorf("epoch-0 result bookkeeping off: %+v", res)
	}
}

// frozenSnapshot captures, per video, the records that must survive the
// next Advance untouched: deliveries starting before the horizon and
// residencies loaded before it (with span clamped to their frozen readers).
type frozenSnapshot struct {
	deliveries  map[int][]schedule.Delivery
	residencies map[int][]schedule.Residency
	services    map[int][][]int // frozen reader sets per residency
}

func snapshotFrozen(s *schedule.Schedule, h simtime.Time) frozenSnapshot {
	snap := frozenSnapshot{
		deliveries:  make(map[int][]schedule.Delivery),
		residencies: make(map[int][]schedule.Residency),
		services:    make(map[int][][]int),
	}
	for _, vid := range s.VideoIDs() {
		fs := s.File(vid)
		var ds []schedule.Delivery
		for _, d := range fs.Deliveries {
			if d.Start >= h {
				break
			}
			ds = append(ds, d)
		}
		var cs []schedule.Residency
		var svs [][]int
		readers := fs.Readers()
		for j, c := range fs.Residencies {
			if c.Load >= h {
				break
			}
			var kept []int
			for _, di := range readers[j] {
				if di < len(ds) {
					kept = append(kept, di)
				}
			}
			cs = append(cs, c)
			svs = append(svs, kept)
		}
		snap.deliveries[int(vid)] = ds
		snap.residencies[int(vid)] = cs
		snap.services[int(vid)] = svs
	}
	return snap
}

// checkFrozenPreserved asserts the committed schedule still contains every
// frozen record at its original index: deliveries field-identical;
// residencies identical in placement (Video, Loc, Src, Load, FedBy), with
// a span that can only have grown and a reader set that contains every
// frozen reader.
func checkFrozenPreserved(t *testing.T, snap frozenSnapshot, s *schedule.Schedule, h simtime.Time) {
	t.Helper()
	for vid, ds := range snap.deliveries {
		fs := s.File(media.VideoID(vid))
		if fs == nil {
			if len(ds) > 0 || len(snap.residencies[vid]) > 0 {
				t.Fatalf("video %d with frozen records vanished from committed schedule", vid)
			}
			continue
		}
		if len(fs.Deliveries) < len(ds) {
			t.Fatalf("video %d: %d frozen deliveries but only %d committed", vid, len(ds), len(fs.Deliveries))
		}
		for i, d := range ds {
			if !reflect.DeepEqual(fs.Deliveries[i], d) {
				t.Errorf("video %d: frozen delivery %d modified:\nbefore %+v\nafter  %+v", vid, i, d, fs.Deliveries[i])
			}
		}
		cs := snap.residencies[vid]
		readers := fs.Readers()
		if len(fs.Residencies) < len(cs) {
			t.Fatalf("video %d: %d frozen residencies but only %d committed", vid, len(cs), len(fs.Residencies))
		}
		for j, c := range cs {
			got := fs.Residencies[j]
			if got.Video != c.Video || got.Loc != c.Loc || got.Src != c.Src || got.Load != c.Load || got.FedBy != c.FedBy {
				t.Errorf("video %d: frozen residency %d placement modified:\nbefore %+v\nafter  %+v", vid, j, c, got)
			}
			// The span may only grow: clamping drops future readers, and a
			// later extension re-grows it, but it can never undercut the
			// latest frozen reader.
			lo := c.Load
			for _, di := range snap.services[vid][j] {
				if s := snap.deliveries[vid][di].Start; s > lo {
					lo = s
				}
			}
			if got.FedBy != schedule.PrePlacedFeed && got.LastService < lo {
				t.Errorf("video %d: frozen residency %d span shrank below its frozen readers: %v < %v", vid, j, got.LastService, lo)
			}
			have := make(map[int]bool, len(readers[j]))
			for _, di := range readers[j] {
				have[di] = true
			}
			for _, di := range snap.services[vid][j] {
				if !have[di] {
					t.Errorf("video %d: frozen residency %d lost frozen reader %d", vid, j, di)
				}
			}
		}
	}
	_ = h
}

// A multi-epoch run must never modify a frozen record, never violate IS
// capacity including the frozen occupancy, and must end up serving every
// accepted reservation.
func TestMultiEpochFrozenInvariant(t *testing.T) {
	r := rig(t, smallParams())
	testutil.SetProcs(t, 4)
	svc := horizon.New(r.Model, horizon.Config{})
	ctx := context.Background()

	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	const epochs = 5
	step := simtime.Duration(int64(window) / epochs)

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)

	next := 0
	for k := 1; k <= epochs; k++ {
		h := simtime.Time(int64(step) * int64(k))
		// Arrivals for epoch k: reservations starting before the NEXT
		// horizon, submitted while the current horizon still admits them.
		for next < len(reqs) && reqs[next].Start < h.Add(step) {
			if _, err := svc.Submit(reqs[next].Start, reqs[next]); err != nil {
				t.Fatalf("submit %+v at epoch %d: %v", reqs[next], k, err)
			}
			next++
		}
		snap := snapshotFrozen(svc.Committed(), h)
		res, err := svc.Advance(ctx, h)
		if err != nil {
			t.Fatalf("advance to %v: %v", h, err)
		}
		committed := svc.Committed()
		checkFrozenPreserved(t, snap, committed, h)

		ledger := occupancy.FromSchedule(r.Topo, r.Catalog, committed)
		if ovs := ledger.AllOverflows(); len(ovs) > 0 {
			t.Fatalf("epoch %d: %d capacity overflows in committed schedule, first %+v", k, len(ovs), ovs[0])
		}
		if res.Horizon != h {
			t.Errorf("epoch %d: result horizon %v, want %v", k, res.Horizon, h)
		}
	}
	if next != len(reqs) {
		t.Fatalf("replay bug: %d of %d requests submitted", next, len(reqs))
	}
	if err := svc.Committed().Validate(r.Topo, r.Catalog, svc.Accepted()); err != nil {
		t.Fatalf("final committed schedule invalid: %v", err)
	}
	if got, want := len(svc.Accepted()), len(reqs); got != want {
		t.Fatalf("accepted %d of %d reservations", got, want)
	}
}

func TestLateArrivalRejected(t *testing.T) {
	r := rig(t, smallParams())
	svc := horizon.New(r.Model, horizon.Config{})
	ctx := context.Background()

	if _, err := svc.Submit(0, r.Requests[0]); err != nil {
		t.Fatal(err)
	}
	h := simtime.Time(6 * int64(simtime.Hour))
	if _, err := svc.Advance(ctx, h); err != nil {
		t.Fatal(err)
	}

	late := workload.Request{User: r.Requests[0].User, Video: r.Requests[0].Video, Start: h - 1}
	if _, err := svc.Submit(h, late); !errors.Is(err, horizon.ErrLateArrival) {
		t.Fatalf("late arrival got error %v, want ErrLateArrival", err)
	}
	// Exactly at the horizon is still schedulable.
	onTime := workload.Request{User: late.User, Video: late.Video, Start: h}
	if _, err := svc.Submit(h, onTime); err != nil {
		t.Fatalf("reservation at the horizon rejected: %v", err)
	}
	if _, err := svc.Advance(ctx, h-1); err == nil {
		t.Fatal("moving the horizon backwards must fail")
	}
}

func TestEpochTriggers(t *testing.T) {
	r := rig(t, smallParams())
	mkReq := func(i int) workload.Request {
		return workload.Request{User: r.Requests[i].User, Video: r.Requests[i].Video, Start: r.Requests[i].Start}
	}

	t.Run("requests", func(t *testing.T) {
		svc := horizon.New(r.Model, horizon.Config{EpochRequests: 3})
		for i := 0; i < 2; i++ {
			ack, err := svc.Submit(0, mkReq(i))
			if err != nil || ack.EpochDue {
				t.Fatalf("submit %d: err=%v due=%v", i, err, ack.EpochDue)
			}
		}
		ack, err := svc.Submit(0, mkReq(2))
		if err != nil {
			t.Fatal(err)
		}
		if !ack.EpochDue || ack.Trigger != horizon.TriggerRequests {
			t.Fatalf("count trigger: %+v", ack)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		vol := r.Catalog.Video(r.Requests[0].Video).StreamBytes().Float()
		svc := horizon.New(r.Model, horizon.Config{EpochBytes: vol + 1})
		ack, err := svc.Submit(0, mkReq(0))
		if err != nil || ack.EpochDue {
			t.Fatalf("first submit: err=%v ack=%+v", err, ack)
		}
		ack, err = svc.Submit(0, mkReq(1))
		if err != nil {
			t.Fatal(err)
		}
		if !ack.EpochDue || ack.Trigger != horizon.TriggerBytes {
			t.Fatalf("bytes trigger: %+v", ack)
		}
	})

	t.Run("tick", func(t *testing.T) {
		svc := horizon.New(r.Model, horizon.Config{EpochTick: simtime.Hour})
		ack, err := svc.Submit(simtime.Time(int64(simtime.Minute)), mkReq(0))
		if err != nil || ack.EpochDue {
			t.Fatalf("early arrival: err=%v ack=%+v", err, ack)
		}
		ack, err = svc.Submit(simtime.Time(int64(simtime.Hour)), mkReq(1))
		if err != nil {
			t.Fatal(err)
		}
		if !ack.EpochDue || ack.Trigger != horizon.TriggerTick {
			t.Fatalf("tick trigger: %+v", ack)
		}
	})
}

// The worker-pool fan-out must not affect the result: phase 1 is
// deterministic per file, so GOMAXPROCS 1, 2 and 4 must produce the same
// committed schedule.
func TestWorkerPoolDeterminism(t *testing.T) {
	for _, seed := range []int64{5, 42, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := smallParams()
			p.Seed = seed
			r := rig(t, p)
			run := func(procs int) string {
				testutil.SetProcs(t, procs)
				svc := horizon.New(r.Model, horizon.Config{})
				for _, req := range r.Requests {
					if _, err := svc.Submit(0, req); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := svc.Advance(context.Background(), 0); err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(svc.Committed())
				if err != nil {
					t.Fatal(err)
				}
				return string(blob)
			}
			// Byte-identical, not merely structurally equal: both the
			// phase-1 fan-out and the SORP candidate evaluation now run on
			// the shared pool, and the committed schedule must not betray
			// its size.
			want := run(1)
			for _, procs := range []int{2, 4} {
				if got := run(procs); got != want {
					t.Errorf("GOMAXPROCS=%d committed schedule differs from sequential run", procs)
				}
			}
		})
	}
}

// A file whose requests all froze must still carry its frozen prefix
// through later epochs, and a cancelled context must abort an Advance.
func TestAdvanceCancelledAndCarryThrough(t *testing.T) {
	r := rig(t, smallParams())
	svc := horizon.New(r.Model, horizon.Config{})
	ctx := context.Background()

	for _, req := range r.Requests {
		if _, err := svc.Submit(0, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Advance(ctx, 0); err != nil {
		t.Fatal(err)
	}
	before := svc.Committed()

	// Freeze everything; no pending work. Every file must survive intact
	// apart from span clamping of copies whose readers all froze.
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	end := simtime.Time(int64(window) * 2)
	if _, err := svc.Advance(ctx, end); err != nil {
		t.Fatal(err)
	}
	after := svc.Committed()
	if got, want := after.NumDeliveries(), before.NumDeliveries(); got != want {
		t.Fatalf("full freeze dropped deliveries: %d -> %d", want, got)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Submit(end, workload.Request{User: 0, Video: 0, Start: end + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Advance(cancelled, end); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled advance returned %v", err)
	}
	// The failed advance must not have corrupted state: retry succeeds.
	if _, err := svc.Advance(ctx, end); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// Frozen residencies must never be chosen as SORP victims; this is
// enforced inside sorp but asserted here end-to-end: epochs with active
// resolution still preserve every frozen record (covered by
// TestMultiEpochFrozenInvariant) and the victim list never names a frozen
// copy's video/window pair that would require tearing one up. The cheap
// direct check: run a tight-capacity multi-epoch workload and let the
// internal validation (overflow re-check + frozen prefix verification in
// splitFile on the NEXT advance) fail the test if resolution misbehaved.
func TestTightCapacityMultiEpoch(t *testing.T) {
	p := smallParams()
	p.CapacityGB = 1.2 // tighter: force heavier SORP involvement
	r := rig(t, p)
	svc := horizon.New(r.Model, horizon.Config{Metric: sorp.SpacePerCost, Policy: ivs.CacheOnRoute})
	ctx := context.Background()

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	const epochs = 4
	step := simtime.Duration(int64(window) / epochs)

	next := 0
	for k := 1; k <= epochs; k++ {
		h := simtime.Time(int64(step) * int64(k))
		for next < len(reqs) && reqs[next].Start < h.Add(step) {
			if _, err := svc.Submit(reqs[next].Start, reqs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if _, err := svc.Advance(ctx, h); err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
	}
	if err := svc.Committed().Validate(r.Topo, r.Catalog, svc.Accepted()); err != nil {
		t.Fatal(err)
	}
}
