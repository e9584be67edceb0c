package ivs

import (
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// chainRig builds the worst case for tentative-cache bookkeeping: a long
// chain VW - IS1 - ... - ISn with users at the far end, so every direct
// stream traverses every storage and opens a tentative copy at each. The
// residency list then grows by O(chain) per request, and a per-candidate
// linear duplicate scan makes ScheduleFile quadratic in the request count.
func chainRig(b *testing.B, storages int) (*cost.Model, workload.Set) {
	b.Helper()
	topo := topology.Chain(topology.GenConfig{
		Storages:        storages,
		UsersPerStorage: 1,
		Capacity:        1000 * units.GB,
	})
	cat, err := media.Uniform(1, 2.5e9, 2*simtime.Hour+15*simtime.Minute, units.Mbps(2.5))
	if err != nil {
		b.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), testutil.CentsPerMbit(0.1))
	model := cost.NewModel(book, routing.NewTable(book), cat)
	return model, nil
}

// BenchmarkScheduleFileChain is the asymptotic guard for the incremental
// duplicate-suppression index: doubling the request count should roughly
// double ns/op (linear greedy bookkeeping), not quadruple it (the old
// quadratic duplicate scan). Compare the per-request cost across sizes.
func BenchmarkScheduleFileChain(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("requests=%d", n), func(b *testing.B) {
			model, _ := chainRig(b, 12)
			topo := model.Book().Topology()
			last := topo.NumUsers() - 1 // farthest user: longest route
			reqs := make([]workload.Request, n)
			for i := range reqs {
				reqs[i] = workload.Request{
					User:  topology.UserID(last),
					Video: 0,
					Start: simtime.Time(i) * simtime.Time(simtime.Minute),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleFile(model, 0, reqs, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
