// Package audit bundles every independent check the repository has into a
// single verdict on a schedule: structural validation, capacity
// feasibility, event-simulator execution with cost agreement, and billing
// attribution consistency. Operators call it before trusting a schedule
// produced elsewhere (a file from disk, a response from the HTTP service);
// the test suite and the benchmark use the same bundle as their end-to-end
// oracle. It is not a gate: the serving tier commits, recovers, installs and
// promotes on scheduler.Check alone (the first two checks here), because the
// simulator and billing are independent re-implementations whose every
// disagreement so far has been their own bug — worth a report, not a shard
// that will not restart. layers_test.go (the bar: rows) keeps it that way.
package audit

import (
	"fmt"

	"github.com/vodsim/vsp/internal/billing"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/vodsim"
	"github.com/vodsim/vsp/internal/workload"
)

// Finding is one failed check.
type Finding struct {
	Check  string
	Detail string
}

func (f Finding) String() string { return f.Check + ": " + f.Detail }

// Report is the audit outcome.
type Report struct {
	Findings []Finding
	// AnalyticCost is Ψ(S) under the model.
	AnalyticCost units.Money
	// SimulatedCost is the event simulator's independent total.
	SimulatedCost units.Money
	// BilledCost is the billing statement's total.
	BilledCost units.Money
	// Overflows counts storage over-commit situations.
	Overflows int
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

func (r *Report) add(check, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// Run audits a schedule against the model and the request batch it claims
// to serve. A structurally invalid schedule is reported as that one
// "validate" finding and nothing else: the ledger, the simulator and billing
// all index by the IDs the structural check vouches for. On a well-formed
// schedule every check runs, and the report collects every failure rather
// than stopping at the first.
func Run(m *cost.Model, s *schedule.Schedule, reqs workload.Set) *Report {
	rep := &Report{}

	// 1–2. The commit predicate, each half reported on its own: structural
	// validation with request coverage, and capacity feasibility.
	v := scheduler.Check(m.Book().Topology(), m.Catalog(), s, reqs)
	if v.Invalid != nil {
		rep.add("validate", "%v", v.Invalid)
	}
	if v.Malformed {
		return rep
	}
	rep.Overflows = len(v.Overflows)
	if rep.Overflows > 0 {
		rep.add("capacity", "%d storage overflow(s), first %v", rep.Overflows, v.Overflows[0])
	}

	// 3. Event-driven execution and independent cost derivation.
	rep.AnalyticCost = m.ScheduleCost(s)
	sim := vodsim.Execute(m.Book(), m.Catalog(), s)
	rep.SimulatedCost = sim.TotalCost()
	if !sim.OK() {
		rep.add("simulate", "%d violation(s), first %v", len(sim.Violations), sim.Violations[0])
	}
	if !rep.SimulatedCost.ApproxEqual(rep.AnalyticCost, costTolerance(rep.AnalyticCost)) {
		rep.add("cost-agreement", "simulated %v != analytic %v", rep.SimulatedCost, rep.AnalyticCost)
	}

	// 4. Billing attribution sums to Ψ(S).
	st, err := billing.Attribute(m, s)
	if err != nil {
		rep.add("billing", "%v", err)
	} else {
		rep.BilledCost = st.Total()
		if !rep.BilledCost.ApproxEqual(rep.AnalyticCost, costTolerance(rep.AnalyticCost)) {
			rep.add("billing-sum", "billed %v != analytic %v", rep.BilledCost, rep.AnalyticCost)
		}
		for _, l := range st.Lines {
			if l.Network < -1e-9 || l.Storage < -1e-9 {
				rep.add("billing-negative", "user %d charged %v network, %v storage", l.User, l.Network, l.Storage)
				break
			}
		}
	}
	return rep
}

// costTolerance scales the float tolerance with the magnitude of the cost.
func costTolerance(c units.Money) float64 {
	t := 1e-6 * (1 + float64(c))
	if t < 1e-6 {
		return 1e-6
	}
	return t
}
