package horizon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// goodSnapshot runs the scripted workload on a primary that compacts every
// epoch, stops with the second epoch's intake still pending, and returns the
// snapshot the primary would ship to a fresh follower.
func goodSnapshot(t testing.TB, r *testutil.Rig) []byte {
	t.Helper()
	primary, err := horizon.Recover(t.TempDir(), r.Model, horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for _, op := range script(r, 3) {
		if !op.submit && primary.Epoch() == 1 {
			break
		}
		applyOp(t, primary, op)
	}
	tail, err := primary.TailAfter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Snapshot == nil {
		t.Fatal("fixture bug: a compacted journal shipped records from seq 0")
	}
	return tail.Snapshot
}

// inconsistentSnapshot is a payload that decodes and must not be admitted.
type inconsistentSnapshot struct {
	name string
	blob []byte
	want string // what the refusal must name
}

// inconsistentSnapshots edits a good payload into states no service could have
// reached. The first five are the ones that used to panic inside the gate
// that was there to distrust them; the rest decode into a schedule, service
// lists or cached sums that disagree with what the state accepted.
func inconsistentSnapshots(t testing.TB, good []byte) []inconsistentSnapshot {
	t.Helper()
	edit := func(fn func(st map[string]any)) []byte {
		dec := json.NewDecoder(bytes.NewReader(good))
		dec.UseNumber() // untouched numbers re-encode as written
		var st map[string]any
		if err := dec.Decode(&st); err != nil {
			t.Fatal(err)
		}
		fn(st)
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	files := func(st map[string]any) map[string]any {
		return st["committed"].(map[string]any)["files"].(map[string]any)
	}
	// firstWith returns the lowest-numbered file with a record of the kind.
	firstWith := func(st map[string]any, kind string) []any {
		fs := files(st)
		keys := make([]string, 0, len(fs))
		for k := range fs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if recs, _ := fs[k].(map[string]any)[kind].([]any); len(recs) > 0 {
				return recs
			}
		}
		t.Fatalf("fixture bug: no file has %s", kind)
		return nil
	}
	// listed returns a residency record with readers, of the lowest-numbered
	// file that has one.
	listed := func(st map[string]any) map[string]any {
		for _, rec := range firstWith(st, "residencies") {
			if c := rec.(map[string]any); len(c["services"].([]any)) > 0 {
				return c
			}
		}
		t.Fatal("fixture bug: the first file with residencies has no reader")
		return nil
	}
	return []inconsistentSnapshot{
		{"more pending than accepted", edit(func(st map[string]any) {
			accepted := st["accepted"].([]any)
			st["pending"] = append(append([]any(nil), accepted...), accepted[0])
		}), "not the tail of"},
		{"nil file", edit(func(st map[string]any) {
			files(st)["0"] = nil
		}), "holds no schedule"},
		{"residency at a node the topology lacks", edit(func(st map[string]any) {
			firstWith(st, "residencies")[0].(map[string]any)["loc"] = 9999
		}), "9999"},
		{"file for a video the catalog lacks", edit(func(st map[string]any) {
			files(st)["9999"] = map[string]any{"video": 9999, "deliveries": []any{}, "residencies": []any{}}
		}), "unknown video 9999"},
		{"delivery with an empty route", edit(func(st map[string]any) {
			firstWith(st, "deliveries")[0].(map[string]any)["route"] = []any{}
		}), "empty route"},
		{"pending that is not the tail of accepted", edit(func(st map[string]any) {
			pending := st["pending"].([]any)
			if len(pending) < 2 {
				t.Fatal("fixture bug: fewer than two reservations pending")
			}
			pending[0], pending[1] = pending[1], pending[0]
		}), "not the tail of"},
		{"accepted reservation of an unknown user", edit(func(st map[string]any) {
			st["accepted"].([]any)[0].(map[string]any)["user"] = 9999
		}), "unknown user 9999"},
		{"negative epoch", edit(func(st map[string]any) {
			st["epoch"] = -1
		}), "negative epoch"},
		{"schedule that serves nothing it accepted", edit(func(st map[string]any) {
			delete(st, "committed")
		}), "not served"},
		{"service list that leaves out a reader", edit(func(st map[string]any) {
			c := listed(st)
			c["services"] = c["services"].([]any)[1:]
		}), "draw from it"},
		{"service list that names a reader twice", edit(func(st map[string]any) {
			c := listed(st)
			c["services"] = append(c["services"].([]any), c["services"].([]any)[0])
		}), "draw from it"},
		{"service list that names no delivery", edit(func(st map[string]any) {
			c := listed(st)
			c["services"] = append(c["services"].([]any), 99999)
		}), " 99999], but deliveries ["},
		{"cost that is not the committed schedule's", edit(func(st map[string]any) {
			st["cost"] = 12345.5
		}), "cost 12345.5 is not"},
		{"pending_bytes that is not the pending reservations'", edit(func(st map[string]any) {
			st["pending_bytes"] = 1
		}), "pending_bytes 1 is not"},
	}
}

// A checksum-valid snapshot file whose payload decodes into a state that
// contradicts itself, or whose schedule an epoch commit would not have
// accepted, must refuse to start — with an error that names what is wrong,
// never a panic.
func TestRecoverRefusesInconsistentSnapshot(t *testing.T) {
	r := rig(t, durableParams())
	for _, tc := range inconsistentSnapshots(t, goodSnapshot(t, r)) {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := wal.WriteSnapshot(dir, 1, tc.blob); err != nil {
				t.Fatal(err)
			}
			svc, err := horizon.Recover(dir, r.Model, horizon.Config{})
			if err == nil {
				svc.Close()
				t.Fatal("inconsistent state served")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal does not name %q: %v", tc.want, err)
			}
		})
	}
}

// FuzzSnapshotDoor feeds arbitrary bytes to the door every snapshot payload
// takes, from disk or off the wire: it must answer with a state or an error,
// never a panic, and a state it admits must be a fixed point — re-encoded it
// is admitted again and encodes to the same bytes — whose encoding by the
// snapshot's writer is json.Marshal's, byte for byte.
func FuzzSnapshotDoor(f *testing.F) {
	r, err := testutil.Build(durableParams())
	if err != nil {
		f.Fatal(err)
	}
	good := goodSnapshot(f, r)
	f.Add(good)
	for _, tc := range inconsistentSnapshots(f, good) {
		f.Add(tc.blob)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"committed":{"files":null},"accepted":null,"pending":[]}`))
	f.Add([]byte(`{"`))
	svc := horizon.New(r.Model, horizon.Config{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		first, marshalled, err := svc.AdmitSnapshot(blob)
		if err != nil {
			return
		}
		if !bytes.Equal(first, marshalled) {
			t.Fatalf("payload %q was admitted, and its state encodes differently:\nappendJSON   %s\njson.Marshal %s", blob, first, marshalled)
		}
		second, _, err := svc.AdmitSnapshot(first)
		if err != nil {
			t.Fatalf("payload %q was admitted, its re-encoding %q is refused: %v", blob, first, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("admitted state is not a fixed point:\nfirst  %s\nsecond %s", first, second)
		}
	})
}

// copyDataDir snapshots a live service's data directory the way a crash
// would: whatever bytes are in the files right now.
func copyDataDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{wal.SnapshotName, horizon.LogName} {
		blob, err := os.ReadFile(filepath.Join(from, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// assertReloadable is "commit accepts ⇒ recovery accepts", checked on one
// committed state: a crash image of the data directory recovers to the
// byte-identical plan, a fresh follower fed from sequence 0 (by snapshot once
// the journal has been compacted, by records before) converges to it, and
// the audit bundle — no longer consulted by either — has nothing to report.
func assertReloadable(t *testing.T, svc *horizon.Service, dir string, r *testutil.Rig, cfg horizon.Config) {
	t.Helper()
	want := fingerprint(t, svc)

	re, err := horizon.Recover(copyDataDir(t, dir), r.Model, cfg)
	if err != nil {
		t.Fatalf("epoch %d: recovery refuses state the live path committed: %v", svc.Epoch(), err)
	}
	if got := fingerprint(t, re); got != want {
		t.Errorf("epoch %d: recovered state differs:\n got %.300s\nwant %.300s", svc.Epoch(), got, want)
	}
	re.Close()

	follower := horizon.New(r.Model, cfg)
	shipAll(t, svc, follower) // fails the test when an install or an apply is refused
	if got := fingerprint(t, follower); got != want {
		t.Errorf("epoch %d: fresh follower differs:\n got %.300s\nwant %.300s", svc.Epoch(), got, want)
	}
	if err := follower.VerifyCommitted(); err != nil {
		t.Errorf("epoch %d: follower would refuse promotion: %v", svc.Epoch(), err)
	}

	accepted := svc.Accepted()
	planned := accepted[:len(accepted)-svc.Pending()]
	if rep := audit.Run(r.Model, svc.Committed(), planned); !rep.OK() {
		t.Errorf("epoch %d: the oracle objects to a committed state: %v", svc.Epoch(), rep.Findings)
	}
}

// The property ROADMAP item 2 asked for: over seeded random traces, advances
// that lag the arrival clock by a random amount, rigs tight enough that SORP
// runs and frozen copies are extended, and every snapshot period, each state
// an epoch commits can be recovered, shipped and promoted — and still passes
// the whole audit bundle, which stays the oracle although it is no longer the
// gate.
func TestCommitAcceptsImpliesRecoveryAccepts(t *testing.T) {
	victims, extended := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, snapEvery := range []int{1, 3, -1} {
			t.Run(fmt.Sprintf("seed=%d/snapshotEvery=%d", seed, snapEvery), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := rig(t, testutil.Params{
					Storages:        4 + rng.Intn(3),
					UsersPerStorage: 3 + rng.Intn(2),
					Titles:          10 + rng.Intn(6),
					WindowHours:     6 + rng.Intn(4),
					CapacityGB:      2,
					RequestsPerUser: 3 + rng.Intn(3),
					Seed:            seed,
				})
				reqs := append(workload.Set(nil), r.Requests...)
				workload.SortChronological(reqs)
				perEpoch := 6 + rng.Intn(10)
				lag := simtime.Duration(rng.Int63n(int64(2 * simtime.Hour)))

				cfg := horizon.Config{SnapshotEvery: snapEvery, Fsync: wal.FsyncNever}
				dir := t.TempDir()
				svc, err := horizon.Recover(dir, r.Model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				for i, rq := range reqs {
					if _, err := svc.Submit(rq.Start, rq); err != nil {
						t.Fatal(err)
					}
					to := rq.Start.Add(-lag)
					if (i+1)%perEpoch != 0 || to < svc.Horizon() {
						continue
					}
					res, err := svc.Advance(context.Background(), to)
					if err != nil {
						t.Fatal(err)
					}
					victims += len(res.Victims)
					for _, fs := range svc.Committed().Files {
						for _, c := range fs.Residencies {
							if c.Load < to && c.LastService >= to {
								extended++ // a frozen copy serving re-planned readers
							}
						}
					}
					assertReloadable(t, svc, dir, r, cfg)
				}
			})
		}
	}
	if victims == 0 || extended == 0 {
		t.Fatalf("fixture bug: %d victims, %d frozen copies extended; the runs must produce both", victims, extended)
	}
}

// The case that was refused: a 20 000-request batch with no overflow at all,
// submitted to a durable service and committed in a single epoch — the
// one-shot scheduler, byte for byte — could not be recovered, because the
// simulator inside the old gate mistook float residue for leftover bytes
// (vodsim's TestExecuteResidueScalesWithThroughput, seed 4).
func TestRecoverAcceptsTheBatchSchedule(t *testing.T) {
	const seed = 4
	pr, err := testutil.NewPaperRig(5, 40, 40, 1000*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(pr.Topo, pr.Catalog, workload.Config{Window: 24 * simtime.Hour, RequestsPerUser: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := horizon.Config{Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, pr.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range reqs {
		if _, err := svc.Submit(0, rq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Advance(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	batch, err := scheduler.Schedule(context.Background(), pr.Model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(svc.Committed())
	want, _ := json.Marshal(batch.Schedule)
	if !bytes.Equal(got, want) {
		t.Fatal("fixture bug: the single epoch is not the batch schedule")
	}
	live := fingerprint(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := horizon.Recover(dir, pr.Model, cfg)
	if err != nil {
		t.Fatalf("recovery refuses the batch schedule: %v", err)
	}
	defer re.Close()
	if fingerprint(t, re) != live {
		t.Fatal("recovered state differs from the committed one")
	}
	if rep := audit.Run(pr.Model, re.Committed(), reqs); !rep.OK() {
		t.Fatalf("the oracle objects: %v", rep.Findings)
	}
}
