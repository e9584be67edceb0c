package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {0, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// 2400 samples leave 24 beyond the 99th percentile.
	big := make([]float64, 2400)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 2376 {
		t.Errorf("p99 of 1..2400 = %v, want 2376", got)
	}
}

func TestMedianOverReps(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5 (nearest rank would say 2)", got)
	}
	def, _ := findMetric(endToEnd, "submit_p50_ms")
	v := overReps(def, []float64{5, 9, 7}, 100)
	if v.Value != 7 || v.Min != 5 || v.Max != 9 || v.Reps != 3 || v.Unit != "ms" {
		t.Errorf("overReps = %+v", v)
	}
}

// An open loop times each request from the instant it was due, so a stall
// shows in the requests queued behind it, and reports how late it sent them.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	const stalled, stall = 2, 200 * time.Millisecond
	var seen int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen++; seen-1 == stalled {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, "{}")
	}))
	defer stub.Close()

	d := &driver{
		spec:  intakeSpec{rate: 100, epoch: 1 << 30, shards: 1},
		trace: make([]workload.Request, 10),
		st:    &stack{url: stub.URL, seq: &sequencer{}},
		res:   &repResult{},
	}
	var conn *http.Transport
	d.submit, conn = oneConn()
	defer conn.CloseIdleConnections()
	d.runSubmits(nil)

	res := d.res
	if res.accepted() != 10 || res.ops.failed != 0 {
		t.Fatalf("accepted %d failed %d: %v", res.accepted(), res.ops.failed, res.ops.msgs)
	}
	if res.submitMS[0] > 100 {
		t.Errorf("request 0 took %.1f ms with nothing in its way", res.submitMS[0])
	}
	if res.submitMS[stalled] < ms(stall) {
		t.Errorf("stalled request took %.1f ms, under the %v stall", res.submitMS[stalled], stall)
	}
	// Request 3 was due 10 ms into the stall and could only be sent after
	// it: its latency from the due instant carries the remaining ~190 ms,
	// and its lateness reports that the generator ran behind.
	if res.submitMS[stalled+1] < 150 {
		t.Errorf("request behind the stall took %.1f ms from its due instant, want the ~190 ms wait included", res.submitMS[stalled+1])
	}
	if res.lateMS[stalled+1] < 150 {
		t.Errorf("request behind the stall reported %.1f ms lateness, want ~190", res.lateMS[stalled+1])
	}
	if res.lateMS[0] > 50 {
		t.Errorf("request 0 reported %.1f ms lateness", res.lateMS[0])
	}
}

func TestSpansNestAndSelfTimeSubtractsChildren(t *testing.T) {
	rec := newRecorder()
	client := rec.begin(layerClient, opSubmit, -1, 7)
	gw := rec.begin(layerGateway, opSubmit, -1, -1)
	srv := rec.begin(layerServer, opSubmit, 2, -1)
	// A control-connection advance is in flight at the same time; it must
	// not adopt the submit's spans, nor they its.
	adv := rec.begin(layerClient, opAdvance, -1, 3)
	advSrv := rec.begin(layerServer, opAdvance, 0, -1)
	for _, id := range []int{srv, gw, client, advSrv, adv} {
		rec.end(id)
	}
	spans := rec.snapshot()
	byID := func(id int) span { return spans[id-1] }
	if byID(gw).Parent != client || byID(srv).Parent != gw {
		t.Errorf("submit chain: gateway parent %d (want %d), server parent %d (want %d)", byID(gw).Parent, client, byID(srv).Parent, gw)
	}
	if byID(advSrv).Parent != adv {
		t.Errorf("advance server span parent %d, want %d: with no gateway the client span is the parent", byID(advSrv).Parent, adv)
	}
	if byID(srv).Req != 7 || byID(gw).Req != 7 || byID(advSrv).Req != 3 {
		t.Errorf("req not inherited: server %d gateway %d advance %d", byID(srv).Req, byID(gw).Req, byID(advSrv).Req)
	}
	if byID(srv).Name != "server.submit" || byID(srv).Shard != 2 {
		t.Errorf("server span = %+v", byID(srv))
	}
	next := rec.begin(layerServer, opSubmit, 0, -1)
	rec.end(next)
	if p := rec.snapshot()[next-1].Parent; p != 0 {
		t.Errorf("span opened after its parents ended has parent %d, want 0", p)
	}

	// Self time: sequential children subtract in full; concurrent children
	// (a broadcast) subtract their union, so the fan-out costs its slowest
	// branch.
	msec := func(a, b int64) (int64, int64) { return a * 1e6, b * 1e6 }
	mk := func(id, parent int, a, b int64) span {
		s := span{ID: id, Parent: parent}
		s.Start, s.End = msec(a, b)
		return s
	}
	tree := newSpanTree([]span{
		mk(1, 0, 0, 100),
		mk(2, 1, 10, 50), mk(3, 1, 20, 70), // overlapping: cover 10..70
		mk(4, 0, 0, 100),
		mk(5, 4, 10, 30), mk(6, 4, 40, 60), // sequential: cover 40
		mk(7, 0, 0, 10),
	})
	for id, want := range map[int]float64{1: 40, 4: 60, 7: 10, 2: 40} {
		if got := tree.selfMS(tree.spans[id-1]); math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of span %d = %v ms, want %v", id, got, want)
		}
	}

	// Lock waits: only an advance on the same shard blocks a submit.
	work := []span{{Shard: 0, Start: 5e6, End: 25e6}, {Shard: 1, Start: 5e6, End: 25e6}, {Shard: 0, Start: 40e6, End: 41e6}}
	locks := []span{{Shard: 0, Start: 10e6, End: 30e6}}
	if got := blocked(work, locks); !reflect.DeepEqual(got, []float64{15, 0, 0}) {
		t.Errorf("blocked = %v, want [15 0 0]", got)
	}
}

// Epoch boundaries are driven by trace index and the advance is sequenced
// ahead of the next submit, so two runs of one trace do the same work. The
// closed loop is the hard case: the next submit follows the boundary ack
// within a fraction of a millisecond.
func TestIndexDrivenEpochsRepeat(t *testing.T) {
	spec := intakeWorkload("intake_light", options{smoke: true})
	var clean []*repResult
	for attempt := 0; len(clean) < 2; attempt++ {
		if attempt == 6 {
			t.Fatal("the sequencer lost the race to the horizon lock in most of 6 runs")
		}
		r, err := runIntakeRep(spec, 3, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		if r.ops.failed != 0 {
			t.Fatalf("%d failed operations: %v", r.ops.failed, r.ops.msgs)
		}
		if r.counts.Replanned == 0 || r.counts.Epochs < 3 {
			t.Fatalf("no replanning: %+v", r.counts)
		}
		if r.perturbed == 0 {
			clean = append(clean, r)
		}
	}
	if a, b := clean[0], clean[1]; a.counts != b.counts || a.planCost != b.planCost {
		t.Errorf("runs differ: %+v cost %v vs %+v cost %v", a.counts, a.planCost, b.counts, b.planCost)
	}
}

// The WAL rung appends payloads built by journalOp; they must be what a
// durable service really journals.
func TestJournalOpMirrorsTheJournal(t *testing.T) {
	spec := intakeWorkload("intake_light", options{smoke: true})
	m, err := spec.rig.model()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := horizonConfig()
	cfg.SnapshotEvery = -1 // keep every record in the log
	svc, err := horizon.Recover(dir, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := genTrace(1, m.Book().Topology().NumUsers(), m.Catalog().Len(), 50, spec.span)
	var want [][]byte
	for _, r := range trace {
		if _, err := svc.Submit(r.Start, r); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(journalOp{Op: "submit", At: r.Start, User: r.User, Video: r.Video, Start: r.Start})
		want = append(want, b)
	}
	if _, err := svc.Advance(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(journalOp{Op: "advance", To: 60})
	want = append(want, b)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ReadLogAfter(filepath.Join(dir, horizon.LogName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Payload, want[i]) {
			t.Fatalf("record %d: journal %s, journalOp %s", i, rec.Payload, want[i])
		}
	}
}

func TestKnownFailureLedgerMatchesTheRefusal(t *testing.T) {
	msg := "horizon: recover /tmp/x/s0: recovered state fails audit: billing: billing: residency 1 of video 5 serves nobody (1 finding(s))"
	if !knownFailure(msg) {
		t.Errorf("ledger does not match %q", msg)
	}
	if knownFailure("horizon: recover /tmp/x/s0: wal: corrupt log") {
		t.Error("ledger matches an unrelated recovery error")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "submit_p50_ms", lowerBetter: true, bound: 0.10}
	higher := metricDef{name: "accepted_per_s", bound: 0.10}
	tight := func(v float64) value { return value{Value: v, Min: v * 0.99, Max: v * 1.01} }
	wide := func(v, lo, hi float64) value { return value{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		name       string
		def        metricDef
		base, cand value
		want       verdict
	}{
		{"within bound", lower, tight(100), tight(108), verdictOK},
		{"beyond bound", lower, tight(100), tight(115), verdictWorse},
		{"better", lower, tight(100), tight(50), verdictOK},
		{"higher is better, dropped", higher, tight(100), tight(85), verdictWorse},
		{"higher is better, rose", higher, tight(100), tight(130), verdictOK},
		{"wide and overlapping", lower, wide(100, 80, 130), wide(115, 90, 140), verdictUnresolved},
		{"wide but every rep better", lower, wide(100, 80, 130), wide(60, 50, 70), verdictOK},
		{"wide and every rep worse", lower, wide(100, 80, 130), wide(160, 140, 190), verdictWorse},
		{"floor absorbs a tiny baseline", metricDef{lowerBetter: true, bound: 0.25, floor: 0.1}, tight(0.002), tight(0.05), verdictOK},
		{"no increase allowed", metricDef{lowerBetter: true, floor: 1e-12}, tight(0), value{Value: 0.001, Min: 0.001, Max: 0.001}, verdictWorse},
	} {
		if got := judge(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{Workloads: []*workloadResult{{Name: "intake_light", Metrics: map[string]value{
			"submit_p50_ms": {Value: p50, Min: p50, Max: p50, Reps: 3, Unit: "ms"},
		}}}}
		blob, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1.0), write("same.json", 1.05), write("slow.json", 1.5)
	var out bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &out); code != 0 {
		t.Errorf("compare within bound exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, slow}, &out, &out); code != 1 {
		t.Errorf("compare with a worse row exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row printed:\n%s", out.String())
	}
}

// smokePass runs the whole benchmark once in smoke mode and parses what it
// printed; the tests below share the run.
var smokePass = sync.OnceValues(func() (map[string]map[string]string, error) {
	dir, err := os.MkdirTemp("", "bench-smoke-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-dir", dir}, &out, &errs); code != 0 {
		return nil, fmt.Errorf("smoke pass exited %d: %s", code, errs.String())
	}
	for _, name := range workloadNames[:3] {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
			return nil, fmt.Errorf("no span file: %w", err)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(blob, &file); err != nil {
		return nil, err
	}
	for _, w := range file.Workloads {
		if bad := w.Failed - w.KnownFailed; bad != 0 {
			return nil, fmt.Errorf("%s: %d operations failed outside the known-failure ledger: %v", w.Name, bad, w.Failures)
		}
	}
	// workload -> metric name -> unit, from the "name value unit" lines.
	printed := map[string]map[string]string{}
	var cur string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "#" && f[1] == "workload":
			cur = f[2]
			printed[cur] = map[string]string{}
		case len(f) >= 3 && f[0] != "#":
			if _, err := strconv.ParseFloat(f[1], 64); err != nil {
				return nil, fmt.Errorf("metric line %q: value is not a number", line)
			}
			printed[cur][f[0]] = f[2]
		}
	}
	return printed, nil
})

// The smoke pass drives every public function the benchmark pins and runs
// every output check, so tier-1 fails when a layer's surface changes or a
// check stops passing.
func TestSmokePassRunsEveryWorkload(t *testing.T) {
	printed, err := smokePass()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(printed[name]) == 0 {
			t.Errorf("workload %s printed no metrics", name)
		}
	}
	// The acceptance properties that hold at any size.
	if printed["intake_heavy"]["horizon.overflows"] == "" || printed["batch_solve"]["sorp.resolve_ms"] == "" {
		t.Error("per-layer metrics missing from the traced pass")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantBenchmarkMetric(d metricDef, bounded bool) benchmarkMetric {
	m := benchmarkMetric{Name: d.name, Unit: d.unit, Better: "higher"}
	if d.lowerBetter {
		m.Better = "lower"
	}
	if bounded {
		b := d.driverBound
		m.Bound = &b
	}
	return m
}

// BENCHMARK.json and the program must name the same workloads and metrics:
// the file is what the driver and later issues read, the program is what
// measures.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}

	var want benchmarkJSON
	for _, d := range endToEnd {
		if d.driverBound > 0 {
			want.EndToEnd = append(want.EndToEnd, wantBenchmarkMetric(d, true))
		} else {
			want.PerLayer = append(want.PerLayer, wantBenchmarkMetric(d, false))
		}
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, wantBenchmarkMetric(d, false))
	}
	if !reflect.DeepEqual(file.EndToEnd, want.EndToEnd) {
		got, _ := json.Marshal(want.EndToEnd)
		t.Errorf("end_to_end differs from metrics.go; the tables say:\n%s", got)
	}
	if !reflect.DeepEqual(file.PerLayer, want.PerLayer) {
		got, _ := json.Marshal(want.PerLayer)
		t.Errorf("per_layer differs from metrics.go; the tables say:\n%s", got)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from workloadWhy", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", file.Paths, file.RunSeconds)
	}

	// And the other way round: what the program prints is what the file
	// lists, with the same units. Every workload prints every end_to_end
	// metric; each per_layer metric is printed by at least one workload.
	printed, err := smokePass()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range file.EndToEnd {
		listed[m.Name] = m.Unit
		for _, w := range workloadNames {
			if printed[w][m.Name] != m.Unit {
				t.Errorf("%s prints end_to_end metric %s with unit %q, BENCHMARK.json says %q", w, m.Name, printed[w][m.Name], m.Unit)
			}
		}
	}
	for _, m := range file.PerLayer {
		listed[m.Name] = m.Unit
		found := false
		for _, w := range workloadNames {
			if unit, ok := printed[w][m.Name]; ok {
				found = true
				if unit != m.Unit {
					t.Errorf("%s prints %s in %q, BENCHMARK.json says %q", w, m.Name, unit, m.Unit)
				}
			}
		}
		if !found {
			t.Errorf("no workload prints per_layer metric %s", m.Name)
		}
	}
	for w, metrics := range printed {
		for name := range metrics {
			if _, ok := listed[name]; !ok {
				t.Errorf("%s prints %s, which BENCHMARK.json does not list", w, name)
			}
		}
	}
}

// The driver's line carries every listed metric of the pass it ran, 0 for
// layers the workload does not touch.
func TestDriverLineListsEveryMetric(t *testing.T) {
	res := &workloadResult{Name: "batch_solve", Attempted: 10, Failed: 1, KnownFailed: 1,
		Metrics: map[string]value{"setup_s": {Value: 0.5}}, Layers: layerSet{}}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(res, options{endToEnd: true})), &line); err != nil {
		t.Fatal(err)
	}
	bounded := 0
	for _, d := range endToEnd {
		if d.driverBound > 0 {
			bounded++
		}
	}
	if len(line.Metrics) != bounded || line.Metrics["setup_s"].Value != 0.5 || line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("end-to-end line: %+v", line.Metrics)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted != 10 {
		t.Errorf("a known failure must not count against the driver line: %+v", line)
	}
	line.Metrics = nil
	if err := json.Unmarshal([]byte(driverLine(res, options{traced: true})), &line); err != nil {
		t.Fatal(err)
	}
	if want := len(endToEnd) - bounded + len(perLayer); len(line.Metrics) != want {
		t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), want)
	}
}
