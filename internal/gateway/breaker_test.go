package gateway

import (
	"testing"
	"time"
)

func testBreaker() *breaker {
	return newBreaker(BreakerConfig{
		Window:     time.Second,
		MinSamples: 4,
		SlowCall:   100 * time.Millisecond,
		OpenFor:    time.Second,
	})
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)

	// Below MinSamples nothing trips, however bad the rate.
	b.record(now, 0, true)
	b.record(now, 0, true)
	b.record(now, 0, true)
	if !b.allow(now) {
		t.Fatal("tripped below MinSamples")
	}
	// Fourth sample reaches MinSamples at 100% failure: trip.
	b.record(now, 0, true)
	if b.allow(now) {
		t.Fatal("did not trip at 4/4 failures")
	}
	st := b.status(now)
	if st.State != "open" || st.Ejections != 1 || st.WindowFail != 4 {
		t.Fatalf("status after trip: %+v", st)
	}
}

func TestBreakerHealthyTrafficStaysClosed(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		fail := i%3 == 2 // 33% < the 50% threshold (and no early prefix reaches it)
		b.record(now.Add(time.Duration(i)*time.Millisecond), 0, fail)
	}
	if !b.allow(now.Add(time.Second)) {
		t.Fatal("tripped below the failure-rate threshold")
	}
}

func TestBreakerSlowCallsCountAsBad(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	// Successes, but all slower than SlowCall: the gray failure.
	for i := 0; i < 4; i++ {
		b.record(now, 150*time.Millisecond, false)
	}
	if b.allow(now) {
		t.Fatal("slow successes did not trip the breaker")
	}
}

func TestBreakerWindowAgesOut(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	b.record(now, 0, true)
	b.record(now, 0, true)
	b.record(now, 0, true)
	// The window is 1s; 2s later those failures are stale, so the next
	// failure is 1 of 1 — below MinSamples, no trip.
	later := now.Add(2 * time.Second)
	b.record(later, 0, true)
	if !b.allow(later) {
		t.Fatal("aged-out failures still tripped the breaker")
	}
	if st := b.status(later); st.WindowFail != 1 {
		t.Fatalf("window still holds stale outcomes: %+v", st)
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.record(now, 0, true)
	}
	if b.allow(now) {
		t.Fatal("not open")
	}
	// Cool-off not elapsed: still open, and not viable.
	mid := now.Add(500 * time.Millisecond)
	if b.allow(mid) || b.viable(mid) {
		t.Fatal("admitted before OpenFor elapsed")
	}
	// Past the cool-off: viable (non-mutating) first, then allow admits
	// exactly one probe.
	after := now.Add(1100 * time.Millisecond)
	if !b.viable(after) {
		t.Fatal("not viable after cool-off")
	}
	if st := b.status(after); st.State != "open" {
		t.Fatalf("viable mutated state to %q", st.State)
	}
	if !b.allow(after) {
		t.Fatal("no probe admitted after cool-off")
	}
	if b.allow(after) {
		t.Fatal("second concurrent probe admitted")
	}
	// A failed probe re-opens with a fresh cool-off.
	b.record(after, 0, true)
	if b.allow(after.Add(500 * time.Millisecond)) {
		t.Fatal("admitted during re-opened cool-off")
	}
	if st := b.status(after); st.Ejections != 2 {
		t.Fatalf("ejections = %d, want 2", st.Ejections)
	}
	// Next probe succeeds: closed, window reset.
	again := after.Add(1100 * time.Millisecond)
	if !b.allow(again) {
		t.Fatal("no second probe")
	}
	b.record(again, 0, false)
	st := b.status(again)
	if st.State != "closed" || st.WindowFail != 0 {
		t.Fatalf("after good probe: %+v", st)
	}
	if !b.allow(again) {
		t.Fatal("closed breaker not admitting")
	}
}

func TestBreakerReleaseReturnsProbeSlot(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.record(now, 0, true)
	}
	after := now.Add(1100 * time.Millisecond)
	if !b.allow(after) {
		t.Fatal("no probe admitted")
	}
	// Placement routed elsewhere: the slot comes back for the next call.
	b.release()
	if !b.allow(after) {
		t.Fatal("released probe slot not reusable")
	}
}

func TestBreakerDisabledAndNil(t *testing.T) {
	if b := newBreaker(BreakerConfig{Disabled: true}); b != nil {
		t.Fatal("disabled config built a breaker")
	}
	var b *breaker
	now := time.Unix(1000, 0)
	if !b.allow(now) || !b.viable(now) {
		t.Fatal("nil breaker must admit everything")
	}
	b.record(now, 0, true) // must not panic
	b.release()
	if b.status(now) != nil {
		t.Fatal("nil breaker reported a status")
	}
}

func TestBreakerLateOutcomesWhileOpenAreDropped(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.record(now, 0, true)
	}
	// Stragglers from before the trip must not disturb the open state
	// or the eventual probe accounting.
	b.record(now.Add(10*time.Millisecond), 0, false)
	b.record(now.Add(20*time.Millisecond), 0, true)
	if st := b.status(now.Add(30 * time.Millisecond)); st.State != "open" || st.Ejections != 1 {
		t.Fatalf("straggler outcomes disturbed the open state: %+v", st)
	}
}
