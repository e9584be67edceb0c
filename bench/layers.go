package main

import (
	"fmt"
	"sort"
)

// layerSet collects the per-layer metrics a workload exercises, by name.
// The driver line reports the rest of perLayer as 0.
type layerSet map[string]value

// set stores a single measurement; n is the sample count behind it.
func (ls layerSet) set(name string, v float64, n int) {
	def, ok := findMetric(perLayer, name)
	if !ok {
		panic("bench: unlisted per-layer metric " + name)
	}
	ls[name] = value{Value: v, Unit: def.unit, Min: v, Max: v, Reps: 1, N: n}
}

// pcts stores percentiles of one sample under name_p50, name_p99...
func (ls layerSet) pcts(name string, xs []float64, ps ...int) {
	s := sortedCopy(xs)
	for _, p := range ps {
		ls.set(fmt.Sprintf("%s_p%d", name, p), percentile(s, float64(p)), len(s))
	}
}

// intakeLayers turns the traced repetition's spans and the ladder's rungs
// into the per-layer metrics. base is the untraced repetition tracing
// overhead is measured against.
func intakeLayers(spec intakeSpec, base, tr *repResult, lad *ladderResult) layerSet {
	ls := layerSet{}
	tree := newSpanTree(tr.spans)
	inWindow := func(spans []span) []span {
		out := spans[:0:0]
		for _, s := range spans {
			if s.Req >= 0 {
				out = append(out, s)
			}
		}
		return out
	}
	selfs := func(spans []span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = tree.selfMS(s)
		}
		return out
	}
	durs := func(spans []span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = s.dur()
		}
		return out
	}

	// Submit path, outermost first. The client span's self time is what
	// no module owns: the loopback hop and the HTTP stacks at both ends.
	ls.pcts("loopback.submit_ms", selfs(byLayerKind(tr.spans, layerClient, opSubmit)), 50)
	srvSubmits := byLayerKind(tr.spans, layerServer, opSubmit)
	srvSelf := make([]float64, len(srvSubmits))
	for i, s := range srvSubmits {
		srvSelf[i] = s.dur() - lad.durable.submitMS[s.Req]
	}
	ls.pcts("server.submit_self_ms", srvSelf, 50, 99)
	ls.pcts("horizon.submit_ms", lad.durable.submitMS, 50, 99)

	// Epoch closes and plan reads. The ladder lists advances by boundary
	// then shard; order the server spans the same way to pair them up.
	srvAdvances := byLayerKind(tr.spans, layerServer, opAdvance)
	timed := inWindow(srvAdvances)
	sort.SliceStable(timed, func(i, j int) bool {
		if timed[i].Req != timed[j].Req {
			return timed[i].Req < timed[j].Req
		}
		return timed[i].Shard < timed[j].Shard
	})
	if len(timed) == len(lad.durable.advanceMS) {
		self := make([]float64, len(timed))
		for i, s := range timed {
			self[i] = s.dur() - lad.durable.advanceMS[i]
		}
		ls.pcts("server.advance_self_ms", self, 50)
	}
	srvPlans := inWindow(byLayerKind(tr.spans, layerServer, opPlan))
	ls.pcts("server.plan_ms", durs(srvPlans), 50)
	ls.set("server.plan_bytes", float64(tr.planBytes), 1)
	ls.set("server.shed", float64(tr.shed), 1)
	ls.set("server.late", float64(tr.late), 1)
	ls.set("server.errors", float64(tr.errors), 1)

	if spec.gw {
		ls.pcts("gateway.submit_self_ms", selfs(byLayerKind(tr.spans, layerGateway, opSubmit)), 50, 99)
		ls.pcts("gateway.advance_self_ms", selfs(inWindow(byLayerKind(tr.spans, layerGateway, opAdvance))), 50)
		ls.pcts("gateway.plan_merge_ms", selfs(inWindow(byLayerKind(tr.spans, layerGateway, opPlan))), 50)
		ls.set("gateway.advance_lag_ms_max", tr.lagMSMax, len(tr.advanceMS))
		if g := tr.gwStats; g != nil && g.Routed > 0 {
			var most, ejections uint64
			for _, sh := range g.Shards {
				most = max(most, sh.Routed)
				if sh.Breaker != nil {
					ejections += sh.Breaker.Ejections
				}
			}
			ls.set("gateway.routed_max_share", float64(most)/float64(g.Routed), int(g.Routed))
			ls.set("gateway.failovers", float64(g.Failovers), 1)
			ls.set("gateway.sheds", float64(g.GatewayShed+g.Shed), 1)
			ls.set("gateway.breaker_ejections", float64(ejections), 1)
		}
	}

	// Waiting for the horizon lock: a reservation or plan read that
	// overlaps an epoch close on its shard spent that overlap queued.
	share := func(name string, waits []float64) []float64 {
		var hit []float64
		for _, w := range waits {
			if w > 0 {
				hit = append(hit, w)
			}
		}
		if len(waits) > 0 {
			ls.set(name, float64(len(hit))/float64(len(waits)), len(waits))
		}
		return hit
	}
	ls.pcts("horizon.submit_blocked_ms", share("horizon.submit_blocked_share", blocked(srvSubmits, srvAdvances)), 50)
	share("horizon.plan_blocked_share", blocked(srvPlans, srvAdvances))

	ls.pcts("horizon.advance_ms", lad.durable.advanceMS, 50)
	ls.set("horizon.advance_busy_s", sum(lad.durable.advanceMS)/1000, len(lad.durable.advanceMS))
	c := lad.counts
	ls.set("horizon.epochs", float64(c.Epochs), 1)
	ls.set("horizon.admitted", float64(c.Admitted), 1)
	ls.set("horizon.replanned", float64(c.Replanned), 1)
	if c.Admitted > 0 {
		ls.set("horizon.replanned_per_admitted", float64(c.Replanned)/float64(c.Admitted), c.Admitted)
	}
	ls.set("horizon.overflows", float64(c.Overflows), 1)
	ls.set("horizon.victims", float64(c.Victims), 1)
	ls.set("sorp.victims", float64(c.Victims), 1)
	if len(lad.durable.advanceMS) == len(lad.memory.advanceMS) {
		over := make([]float64, len(lad.durable.advanceMS))
		for i := range over {
			over[i] = lad.durable.advanceMS[i] - lad.memory.advanceMS[i]
		}
		ls.pcts("horizon.durable_overhead_ms", over, 50)
	}
	ls.pcts("horizon.committed_clone_ms", lad.durable.cloneMS, 50)
	ls.set("horizon.recover_ms", ms(tr.recover), spec.shards)
	ls.set("horizon.replayed_submits", float64(tr.replayedSubmits), 1)
	ls.set("horizon.replayed_advances", float64(tr.replayedAdvances), 1)
	ls.set("horizon.recover_failed", float64(tr.recoverFailed), spec.shards)

	ls.pcts("wal.append_ms", lad.appendMS, 50, 99)
	ls.set("wal.appends", float64(lad.appends), 1)
	ls.set("wal.bytes_per_record", lad.bytesPerRec, lad.appends)
	ls.set("wal.read_ms", lad.readMS, lad.appends)
	ls.set("wal.snapshot_write_ms", lad.snapWriteMS, 1)
	ls.set("wal.snapshot_bytes", float64(lad.snapshotBytes), 1)

	// Closing the attribution: the named self times against the traced
	// run's own median, and the traced median against the untraced one.
	tracedP50 := percentile(sortedCopy(tr.submitMS), 50)
	named := ls["loopback.submit_ms_p50"].Value + ls["gateway.submit_self_ms_p50"].Value +
		ls["server.submit_self_ms_p50"].Value + ls["horizon.submit_ms_p50"].Value
	if spec.rate > 0 {
		ls.pcts("client.late_ms", base.lateMS, 99)
		named += percentile(sortedCopy(tr.lateMS), 50)
	}
	ls.set("client.submit_attributed_share", named/tracedP50, len(tr.submitMS))
	ls.set("trace_overhead_share", tracedP50/percentile(sortedCopy(base.submitMS), 50)-1, len(tr.submitMS))
	return ls
}
