package ivs

import (
	"slices"
	"sync/atomic"

	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
)

// CountQueries runs solve with a workspace on top of the list of idle ones,
// where the solve's TakeWorkspace finds it, and returns how many capacity
// queries the rejective runs on it asked and how many of them were refused.
// With reask set the runs ask every question a run without the refusal memo
// asks. The workspace is taken off the list again when solve returns.
func CountQueries(reask bool, solve func()) (asked, refused int64) {
	var a, r atomic.Int64
	h := &hooks{asked: func(_ schedule.Residency, fits bool) {
		a.Add(1)
		if !fits {
			r.Add(1)
		}
	}}
	if reask {
		h.skipped = func(Options, schedule.Residency, occupancy.Ref) bool { return true }
	}
	ws := watched(h)
	idle.Lock()
	idle.ws = append(idle.ws, ws)
	idle.Unlock()
	defer func() {
		idle.Lock()
		idle.ws = slices.DeleteFunc(idle.ws, func(w *Workspace) bool { return w == ws })
		idle.Unlock()
	}()
	solve()
	return a.Load(), r.Load()
}

// watched returns a workspace whose runs call the hooks.
func watched(h *hooks) *Workspace { return &Workspace{hooks: h} }

// reasking returns a workspace whose rejective runs ask every question a run
// without the refusal memo asks.
func reasking() *Workspace {
	return watched(&hooks{skipped: func(Options, schedule.Residency, occupancy.Ref) bool { return true }})
}
