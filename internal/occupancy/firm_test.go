package occupancy

import (
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// firmFixture is one storage of 10 GB less a byte behind the warehouse, and
// three titles of 2.5 GB playing 90 minutes: a copy held half its playback
// peaks at exactly 1.25 GB, so totals are exact and can be set to overshoot
// the capacity by under a byte, far inside the margin δ = C·2⁻²⁰ ≈ 9.5 kB.
func firmFixture(t *testing.T) (*Ledger, topology.NodeID) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB-1)
	b.Connect(vw, is1)
	b.AttachUsers(is1, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(3, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	return NewLedger(topo, cat), is1
}

// TestFirmRefusalReplaysFirm holds a probe log's firm refusals to the
// greedy's refusal memo: the greedy asked nothing more about a copy it
// refused firmly, so the refusal stands on replay only while it is still
// firm, and a log whose firm refusal replays as a refusal within the margin
// breaks — though re-asking the probe still says "no". A refusal that was
// within the margin when it was logged stands as a plain "no". Both ways a
// refusal is decided are covered: at the candidate's first instant (the
// group's check) and later in its support (the member's walk).
//
// IS1 holds three full copies of title 1 (7.5 GB) and one of title 2 (2.5
// GB); the candidate, a copy of title 0 held 45 minutes, adds 1.25 GB: a
// firm refusal by 1.25 GB. The base then moves title 2's copy to one of 1.25
// GB, which leaves the refusal at 10 GB, a byte and less eps over, and back.
func TestFirmRefusalReplaysFirm(t *testing.T) {
	half := simtime.Time(45 * simtime.Minute)
	for _, tc := range []struct {
		name string
		at   simtime.Time // when the copies of titles 1 and 2 load; the candidate loads at 0
	}{
		{"at the first instant", 0},
		{"later in the support", simtime.Time(20 * simtime.Minute)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, is1 := firmFixture(t)
			long := tc.at.Add(48 * simtime.Hour)
			for i := 0; i < 3; i++ {
				base.Add(Ref{Video: 1, Index: i}, res(1, is1, tc.at, long))
			}
			base.Add(Ref{Video: 2, Index: 0}, res(2, is1, tc.at, long))
			view := base.OverlayWithout(0)
			log := view.Record()
			if fits, firm := view.FitExcluding(res(0, is1, 0, half), nil); fits || !firm {
				t.Fatalf("fixture bug: the candidate fits %v, firm %v; want a firm refusal", fits, firm)
			}
			view.Release()
			defer log.Release()
			if log.n != 1 || log.ngroups != 1 || !log.groupAt(0).firm {
				t.Fatalf("fixture bug: %d probes in %d groups, the first firm %v; want one firm probe", log.n, log.ngroups, log.groupAt(0).firm)
			}

			base.Update(Ref{Video: 2, Index: 0}, res(2, is1, tc.at, tc.at.Add(45*simtime.Minute)))
			if got := base.SpaceAt(is1, tc.at) + 1.25e9; got != 10e9 {
				t.Fatalf("fixture bug: the candidate's total is %v, want 10 GB", got)
			}
			if reaskProbe(log, base, 0) {
				t.Fatal("fixture bug: the moved base admits the candidate")
			}
			if log.Replay(base) {
				t.Error("the log holds on a base that refuses its firm refusal within the margin: the greedy would ask on about the copy")
			}
			base.Update(Ref{Video: 2, Index: 0}, res(2, is1, tc.at, long))
			if !log.Replay(base) {
				t.Error("the log breaks on a base that refuses its firm refusal firmly again")
			}
		})
	}
	t.Run("within the margin when logged", func(t *testing.T) {
		base, is1 := firmFixture(t)
		long := simtime.Time(48 * simtime.Hour)
		for i := 0; i < 3; i++ {
			base.Add(Ref{Video: 1, Index: i}, res(1, is1, 0, long))
		}
		base.Add(Ref{Video: 2, Index: 0}, res(2, is1, 0, half))
		view := base.OverlayWithout(0)
		log := view.Record()
		if fits, firm := view.FitExcluding(res(0, is1, 0, half), nil); fits || firm {
			t.Fatalf("fixture bug: the candidate fits %v, firm %v; want a refusal within the margin", fits, firm)
		}
		view.Release()
		defer log.Release()
		far := simtime.Time(100 * simtime.Hour)
		base.Add(Ref{Video: 2, Index: 1}, res(2, is1, far, far.Add(simtime.Hour)))
		if !log.Replay(base) {
			t.Error("the log breaks on a base that refuses its refusal within the margin again, as it was logged")
		}
	})
}
