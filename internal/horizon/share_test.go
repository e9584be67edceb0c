package horizon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// sharingRig overflows its 2 GB storages, so its epochs run SORP as well as
// phase 1, and its 120 reservations close 24 epochs of five.
func sharingRig(t *testing.T) (*testutil.Rig, workload.Set) {
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

// driveEpochs submits the trace and closes an epoch after every fifth
// reservation, the horizon lagging an hour behind intake so every epoch both
// freezes a prefix and re-plans a window; closed runs after each close.
func driveEpochs(t *testing.T, svc *Service, reqs workload.Set, closed func(*api.EpochResult)) {
	t.Helper()
	for i, q := range reqs {
		if _, err := svc.Submit(q.Start, q); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if (i+1)%5 != 0 {
			continue
		}
		res, err := svc.Advance(context.Background(), simtime.Max(0, q.Start.Add(-simtime.Hour)))
		if err != nil {
			t.Fatalf("advance after reservation %d: %v", i, err)
		}
		if closed != nil {
			closed(res)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Error(err)
	}
	return b
}

// The split hands the frozen prefix on by reference: frozen deliveries are
// the committed array itself, capped so nothing can be appended into it, and
// a frozen residency is the committed record unless the split clamps it, in
// which case it gets a service list of its own. Sharing is only safe if
// nothing downstream writes through it, so every committed schedule must
// still encode to the bytes it had when it was installed after all the later
// epochs — some of which extend a frozen copy — have been planned on top.
func TestSplitSharesTheFrozenPrefix(t *testing.T) {
	r, reqs := sharingRig(t)
	svc := New(r.Model, Config{})

	type installed struct {
		s    *schedule.Schedule
		blob []byte
	}
	var history []installed
	shared, clamped, extended := 0, 0, 0
	driveEpochs(t, svc, reqs, func(*api.EpochResult) {
		st := svc.st
		history = append(history, installed{st.Committed, mustMarshal(t, st.Committed)})

		// Split where the next close might, and look at what is shared.
		to := st.Horizon.Add(30 * simtime.Minute)
		for vid, fs := range st.Committed.Files {
			pre, _, err := splitFile(fs, to)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(pre.Deliveries); n > 0 {
				if &pre.Deliveries[0] != &fs.Deliveries[0] {
					t.Fatalf("video %d: frozen deliveries were copied", vid)
				}
				if cap(pre.Deliveries) != n {
					t.Fatalf("video %d: frozen deliveries have cap %d over len %d: an append would write into the committed array",
						vid, cap(pre.Deliveries), n)
				}
			}
			if cap(pre.Residencies) != len(pre.Residencies) && len(pre.Residencies) > 0 &&
				&pre.Residencies[0] == &fs.Residencies[0] {
				t.Fatalf("video %d: shared frozen residencies are not capped", vid)
			}
			for j, c := range pre.Residencies {
				was := fs.Residencies[j]
				switch {
				case len(c.Services) == len(was.Services) && c.LastService == was.LastService:
					shared++
					if len(c.Services) > 0 && &c.Services[0] != &was.Services[0] {
						t.Fatalf("video %d residency %d loses nothing but its services were copied", vid, j)
					}
				default:
					clamped++
					if len(c.Services) > 0 && unsafe.SliceData(c.Services) == unsafe.SliceData(was.Services) {
						t.Fatalf("video %d residency %d is clamped inside the committed service list", vid, j)
					}
				}
			}
		}
		if k := len(history); k >= 2 {
			// Did this close extend a copy the previous plan had frozen?
			prev := history[k-2].s
			for vid, fs := range st.Committed.Files {
				old := prev.File(vid)
				for j := 0; old != nil && j < len(old.Residencies) && j < len(fs.Residencies); j++ {
					if c := old.Residencies[j]; c.Load < st.Horizon && fs.Residencies[j].LastService > c.LastService {
						extended++
					}
				}
			}
		}
	})
	if shared == 0 || clamped == 0 || extended == 0 {
		t.Fatalf("fixture bug: %d shared, %d clamped frozen residencies, %d frozen copies extended; need all three",
			shared, clamped, extended)
	}
	for k, h := range history {
		if got := mustMarshal(t, h.s); !bytes.Equal(got, h.blob) {
			t.Errorf("the schedule epoch %d installed encodes differently after %d later epochs", k, len(history)-1-k)
		}
	}
}

// Plan hands out the live committed schedule, and the next close now reads
// the same arrays to build its frozen prefixes. Readers that encode every
// plan they see — again and again, while later epochs are planned on top of
// it — must get the same bytes each time, and under -race no write may meet
// their reads.
func TestPlansStayByteStableWhileEpochsAdvance(t *testing.T) {
	r, reqs := sharingRig(t)
	svc := New(r.Model, Config{Workers: 2})

	type reading struct {
		plan api.PlanResponse
		blob []byte
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	held := make([][]reading, 2)
	seen := make([]atomic.Int64, len(held)) // plans each reader holds
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := svc.Plan()
				if n := len(held[g]); n == 0 || held[g][n-1].plan.Epoch != p.Epoch {
					held[g] = append(held[g], reading{p, mustMarshal(t, p.Schedule)})
					seen[g].Store(int64(p.Epoch))
				}
				old := held[g][i%len(held[g])]
				if !bytes.Equal(mustMarshal(t, old.plan.Schedule), old.blob) {
					t.Errorf("epoch %d's plan changed under a reader while epoch %d was current", old.plan.Epoch, p.Epoch)
					return
				}
			}
		}()
	}
	// The next epoch is not closed before both readers hold this one, so
	// every plan is re-read while all its successors are planned.
	overflowing := 0
	driveEpochs(t, svc, reqs, func(res *api.EpochResult) {
		if len(res.Victims) > 0 {
			overflowing++
		}
		for g := range seen {
			for seen[g].Load() <= int64(res.Epoch) && !t.Failed() {
				runtime.Gosched()
			}
		}
	})
	close(done)
	wg.Wait()
	if svc.Epoch() != 24 || overflowing == 0 {
		t.Fatalf("fixture bug: %d epochs, %d with victims; want 24 and SORP at work", svc.Epoch(), overflowing)
	}
	for g := range held {
		if len(held[g]) < 24 {
			t.Errorf("reader %d held %d plans, want one per epoch", g, len(held[g]))
		}
		for _, old := range held[g] {
			if !bytes.Equal(mustMarshal(t, old.plan.Schedule), old.blob) {
				t.Errorf("reader %d: epoch %d's plan encodes differently after the run", g, old.plan.Epoch)
			}
		}
	}
}

// The snapshot is encoded into the service's own buffer and written as a
// header and a payload, and must still be, byte for byte, the file the
// framed copy used to produce: magic, then one record (len, crc over
// seq+payload, seq, all little-endian) holding json.Marshal of the state.
func TestSnapshotFileBytes(t *testing.T) {
	r, reqs := sharingRig(t)
	dir := t.TempDir()
	svc, err := Recover(dir, r.Model, Config{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	snapshots := 0
	driveEpochs(t, svc, reqs[:40], func(*api.EpochResult) {
		payload := mustMarshal(t, svc.st)
		var seq [8]byte
		binary.LittleEndian.PutUint64(seq[:], svc.lastSeq)
		want := []byte("VSPSNAP1")
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Update(crc32.ChecksumIEEE(seq[:]), crc32.IEEETable, payload))
		want = append(append(want, seq[:]...), payload...)

		got, err := os.ReadFile(filepath.Join(dir, wal.SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot after epoch %d: %d bytes on disk differ from the %d expected", svc.st.Epoch, len(got), len(want))
		}
		snapshots++
	})
	if snapshots != 8 || svc.recovery.SnapshotFailures != 0 {
		t.Fatalf("%d snapshots checked, %d failed; want 8 and 0", snapshots, svc.recovery.SnapshotFailures)
	}
}
