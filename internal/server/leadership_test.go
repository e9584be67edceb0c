package server

import (
	"errors"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/wal"
)

func TestParseRole(t *testing.T) {
	for in, want := range map[string]Role{"primary": RolePrimary, "follower": RoleFollower} {
		got, err := ParseRole(in)
		if err != nil || got != want {
			t.Fatalf("ParseRole(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseRole("king"); err == nil {
		t.Fatal("unknown role accepted")
	}
}

// The zero Role must be primary: a zero server.Options builds a normal
// single-node primary, not a follower that rejects all intake.
func TestZeroRoleIsPrimary(t *testing.T) {
	var r Role
	if r != RolePrimary {
		t.Fatalf("zero Role is %v, want primary", r)
	}
}

func TestCheckPrimary(t *testing.T) {
	lead := NewLeadership(RolePrimary, 0)
	if err := lead.CheckPrimary(); err != nil {
		t.Fatalf("primary refuses intake: %v", err)
	}
	if lead.Epoch() != 1 {
		t.Fatalf("primary epoch defaulted to %d, want 1", lead.Epoch())
	}
	follower := NewLeadership(RoleFollower, 0)
	err := follower.CheckPrimary()
	if !errors.Is(err, ErrStaleLeadership) {
		t.Fatalf("follower intake error %v does not wrap ErrStaleLeadership", err)
	}
}

// Observe adopts strictly higher epochs only, demoting a primary that
// learns it has been superseded.
func TestObserveDemotesOnHigherEpoch(t *testing.T) {
	lead := NewLeadership(RolePrimary, 3)
	if lead.Observe(3) || lead.Observe(2) {
		t.Fatal("non-superseding epoch demoted the primary")
	}
	if !lead.IsPrimary() {
		t.Fatal("primary lost leadership without a higher epoch")
	}
	if !lead.Observe(4) {
		t.Fatal("higher epoch did not demote")
	}
	if lead.IsPrimary() || lead.Epoch() != 4 {
		t.Fatalf("after demotion: primary=%v epoch=%d", lead.IsPrimary(), lead.Epoch())
	}
	// Observing the same epoch again reports no further demotion.
	if lead.Observe(4) {
		t.Fatal("repeat observation demoted twice")
	}
}

// Fence rejects non-superseding epochs, so a deposed primary cannot
// fence the node that replaced it.
func TestFenceRequiresSupersedingEpoch(t *testing.T) {
	lead := NewLeadership(RolePrimary, 5)
	for _, e := range []uint64{0, 4, 5} {
		if err := lead.Fence(e); !errors.Is(err, ErrStaleLeadership) {
			t.Fatalf("fence at epoch %d: %v, want ErrStaleLeadership", e, err)
		}
	}
	if !lead.IsPrimary() {
		t.Fatal("failed fences demoted the primary")
	}
	if err := lead.Fence(6); err != nil {
		t.Fatal(err)
	}
	if lead.IsPrimary() || lead.Epoch() != 6 {
		t.Fatalf("after fence: primary=%v epoch=%d", lead.IsPrimary(), lead.Epoch())
	}
}

func TestPromoteBumpsEpoch(t *testing.T) {
	lead := NewLeadership(RoleFollower, 7)
	epoch, err := lead.Promote()
	if err != nil || epoch != 8 {
		t.Fatalf("promote: epoch=%d err=%v, want 8", epoch, err)
	}
	if !lead.IsPrimary() {
		t.Fatal("promotion did not take leadership")
	}
	if _, err := lead.Promote(); err == nil {
		t.Fatal("double promotion accepted")
	}
}

// Wire records carry the WAL checksum; verifyRecord must catch any bit flip in
// payload or sequence.
func TestRecordVerify(t *testing.T) {
	rec := api.Record{Seq: 9, CRC: wal.Checksum(9, []byte("op")), Payload: []byte("op")}
	if err := verifyRecord(rec); err != nil {
		t.Fatal(err)
	}
	tampered := rec
	tampered.Payload = []byte("oq")
	if err := verifyRecord(tampered); err == nil {
		t.Fatal("payload tampering passed verification")
	}
	tampered = rec
	tampered.Seq = 10
	if err := verifyRecord(tampered); err == nil {
		t.Fatal("sequence tampering passed verification")
	}
}

// The role name and the refusal text the gateway matches, declared in
// internal/api, are the ones this package speaks.
func TestLeadershipWordsAreTheWire(t *testing.T) {
	if got := RolePrimary.String(); got != api.RolePrimary {
		t.Errorf("RolePrimary is %q on the wire as %q", got, api.RolePrimary)
	}
	err := NewLeadership(RoleFollower, 0).CheckPrimary()
	if !errors.Is(err, ErrStaleLeadership) || !strings.Contains(err.Error(), api.StaleLeadership) {
		t.Errorf("a follower refuses with %v, which does not hold %q", err, api.StaleLeadership)
	}
}
