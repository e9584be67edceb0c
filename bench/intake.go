package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// sloLimit is ROADMAP item 3's limit: a submit must be acked 202 within
// this long of the instant it was due.
const sloLimit = 100 * time.Millisecond

// epochHeadStart is how long the submitter holds its next request after an
// epoch close has entered every shard's handler. From there the advance
// is tens of microseconds from the horizon lock and the next submit a full
// loopback hop; the pause makes that lead a millisecond, so that a
// scheduling hiccup cannot reorder them.
const epochHeadStart = time.Millisecond

// intakeSpec defines one HTTP workload.
type intakeSpec struct {
	name   string
	rig    rigSpec
	n      int              // requests per repetition
	span   simtime.Duration // starts are uniform over [0, span)
	epoch  int              // an epoch boundary follows every epoch-th ack
	lag    simtime.Duration // an advance targets the boundary request's start minus lag
	rate   float64          // open-loop requests per second; 0 = closed loop
	planHz float64          // GET /v1/plan rate on the control connection; 0 = none
	shards int
	gw     bool
	reps   int
}

// workCounts are the counts that must repeat exactly from run to run.
type workCounts struct {
	Epochs    int `json:"epochs"`
	Admitted  int `json:"admitted"`
	Replanned int `json:"replanned"`
	Overflows int `json:"overflows"`
	Victims   int `json:"victims"`
}

// ops counts operations: every submit, advance, plan read, recovery and
// output check is one.
type ops struct {
	attempted, failed int
	// known counts failures matching the known-failure ledger; they are
	// included in failed.
	known int
	msgs  []string // first few failure messages
}

func (o *ops) ok() { o.attempted++ }

func (o *ops) fail(format string, a ...any) {
	o.attempted++
	o.failed++
	if len(o.msgs) < 8 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, a...))
	}
}

// check records one output check.
func (o *ops) check(err error, what string) {
	if err != nil {
		o.fail("check %s: %v", what, err)
		return
	}
	o.ok()
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.known += p.known
	for _, m := range p.msgs {
		if len(o.msgs) < 8 {
			o.msgs = append(o.msgs, m)
		}
	}
}

// repResult is what one repetition measured.
type repResult struct {
	setup, window, recover time.Duration

	submitMS  []float64 // per request; from the due instant on a paced run
	acked     []bool    // per request: answered 202
	lateMS    []float64 // per request: how long after due it was sent (paced)
	advanceMS []float64 // per epoch close, control-connection round trip
	planMS    []float64 // per timed plan read
	lagMSMax  float64   // largest lag_ms a gateway advance reported

	allocMB float64
	counts  workCounts
	// perturbed counts epoch closes that admitted a request from beyond
	// their boundary: the sequencer makes that rare, not impossible. Such
	// a repetition is valid and timed like any other, but its work counts
	// are not the trace's own, so the equality checks leave it out.
	perturbed int
	planCost  float64
	planBytes int

	recoverFailed                     int
	replayedSubmits, replayedAdvances int

	shed, late, errors int // submits answered 429, 409, anything else not 202
	gwStats            *gateway.StatsResponse

	ops   ops
	spans []span

	// What the ladder replays: the trace and the shard that acked each
	// request (all 0 without a gateway).
	trace   []workload.Request
	shardOf []int
}

func (r *repResult) accepted() int {
	n := 0
	for _, ok := range r.acked {
		if ok {
			n++
		}
	}
	return n
}

// advanceReply decodes both a server's and a gateway's POST /v1/advance
// answer: the gateway sums the counters at top level and lists victims
// per shard.
type advanceReply struct {
	Admitted  int               `json:"admitted"`
	Replanned int               `json:"replanned"`
	Overflows int               `json:"overflows"`
	Victims   []json.RawMessage `json:"victims"`
	Shards    []struct {
		Result struct {
			Victims []json.RawMessage `json:"victims"`
		} `json:"result"`
	} `json:"shards"`
	Failed []json.RawMessage `json:"failed"`
	LagMS  int64             `json:"lag_ms"`
}

func (a advanceReply) victims() int {
	n := len(a.Victims)
	for _, s := range a.Shards {
		n += len(s.Result.Victims)
	}
	return n
}

// boundary is an epoch close handed from the submitter to the control
// connection.
type boundary struct {
	k    int // boundary number, counting skipped ones
	to   simtime.Time
	gate *gate
	// acked is how many requests had been answered 202 at the hand-over:
	// what the epochs up to this one must have admitted in total.
	acked int
}

// oneConn returns a client that holds exactly one connection.
func oneConn() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tr}, tr
}

// roundTrip sends one request and reads the whole reply.
func roundTrip(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// driver is the load generator of one repetition: a submitter and a
// control loop, one connection each.
type driver struct {
	spec  intakeSpec
	trace []workload.Request
	st    *stack
	rec   *recorder
	res   *repResult

	submit, control *http.Client
	shardOf         []int // per request: the shard that acked it (0 without a gateway)
	// ctl counts the control connection's operations; the submitter counts
	// into res.ops meanwhile, and the two are merged after the run.
	ctl ops
}

// runControl serves boundaries and, between them, reads the plan at
// spec.planHz. It returns when bounds is closed and drained. Until then
// only this goroutine touches d.ctl and the control-side fields of res
// (advances, plan reads, counts).
func (d *driver) runControl(bounds <-chan boundary) {
	var tick <-chan time.Time
	if d.spec.planHz > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / d.spec.planHz))
		defer t.Stop()
		tick = t.C
	}
	plans := 0
	for {
		select {
		case b, ok := <-bounds:
			if !ok {
				return
			}
			d.advance(b)
		case <-tick:
			id := d.rec.begin(layerClient, opPlan, -1, plans)
			t0 := time.Now()
			code, body, err := roundTrip(d.control, http.MethodGet, d.st.url+"/v1/plan", nil)
			d.res.planMS = append(d.res.planMS, ms(time.Since(t0)))
			d.rec.end(id)
			plans++
			if err != nil || code != http.StatusOK {
				d.ctl.fail("plan read: status %d: %v", code, err)
				continue
			}
			d.ctl.ok()
			d.res.planBytes = len(body)
		}
	}
}

func (d *driver) advance(b boundary) {
	if b.gate != nil {
		d.st.seq.current.Store(b.gate)
		defer b.gate.release()
	}
	body := fmt.Appendf(nil, `{"to":%d}`, b.to)
	id := d.rec.begin(layerClient, opAdvance, -1, b.k)
	t0 := time.Now()
	code, reply, err := roundTrip(d.control, http.MethodPost, d.st.url+"/v1/advance", body)
	d.res.advanceMS = append(d.res.advanceMS, ms(time.Since(t0)))
	d.rec.end(id)
	var ar advanceReply
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(reply, &ar)
	}
	if err != nil || code != http.StatusOK || len(ar.Failed) > 0 {
		d.ctl.fail("advance to %d: status %d: %v %s", b.to, code, err, firstLine(reply))
		return
	}
	d.ctl.ok()
	c := &d.res.counts
	c.Epochs++
	c.Admitted += ar.Admitted
	c.Replanned += ar.Replanned
	c.Overflows += ar.Overflows
	c.Victims += ar.victims()
	if b.gate != nil && c.Admitted != b.acked {
		// The next submit overtook this advance on the way to the lock.
		d.res.perturbed++
	}
	d.res.lagMSMax = max(d.res.lagMSMax, float64(ar.LagMS))
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 300 {
		s = s[:300]
	}
	return s
}

// runSubmits sends the trace over the submit connection — back to back in
// a closed loop, or each request at its due instant start+i/rate in an
// open loop — and hands every epoch boundary to the control loop.
func (d *driver) runSubmits(bounds chan<- boundary) {
	spec, res := d.spec, d.res
	n := len(d.trace)
	res.submitMS, res.acked, d.shardOf = make([]float64, n), make([]bool, n), make([]int, n)
	if spec.rate > 0 {
		res.lateMS = make([]float64, n)
	}
	url := d.st.url + "/v1/reservations"
	start := time.Now()
	for i, r := range d.trace {
		due := time.Now()
		if spec.rate > 0 {
			due = start.Add(time.Duration(float64(i) / spec.rate * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			res.lateMS[i] = ms(time.Since(due))
		}
		body := fmt.Appendf(nil, `{"user":%d,"video":%d,"start":%d}`, r.User, r.Video, r.Start)
		id := d.rec.begin(layerClient, opSubmit, -1, i)
		code, reply, err := roundTrip(d.submit, http.MethodPost, url, body)
		d.rec.end(id)
		res.submitMS[i] = ms(time.Since(due))
		switch {
		case err == nil && code == http.StatusAccepted:
			res.acked[i] = true
			res.ops.ok()
			if spec.gw {
				var ack gateway.ReservationResponse
				if json.Unmarshal(reply, &ack) == nil {
					fmt.Sscanf(ack.Shard, "s%d", &d.shardOf[i])
				}
			}
		case code == http.StatusTooManyRequests:
			res.shed++
			res.ops.fail("submit %d: shed", i)
		case code == http.StatusConflict:
			res.late++
			res.ops.fail("submit %d: late: %s", i, firstLine(reply))
		default:
			res.errors++
			res.ops.fail("submit %d: status %d: %v %s", i, code, err, firstLine(reply))
		}
		if (i+1)%spec.epoch == 0 {
			if to := r.Start.Add(-spec.lag); to >= 0 {
				g := newGate(spec.shards)
				bounds <- boundary{k: (i + 1) / spec.epoch, to: to, gate: g, acked: res.accepted()}
				<-g.entered
				time.Sleep(epochHeadStart)
			}
		}
	}
}

// setUp is what setup_s times: the model, the trace, the servers up and the
// settle pause.
func setUp(spec intakeSpec, seed int64, dir string, rec *recorder) (*cost.Model, []workload.Request, *stack, time.Duration, error) {
	t0 := time.Now()
	m, err := spec.rig.model()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	trace := genTrace(seed, m.Book().Topology().NumUsers(), m.Catalog().Len(), spec.n, spec.span)
	st, err := startStack(m, spec.shards, spec.gw, dir, rec)
	time.Sleep(settle)
	return m, trace, st, time.Since(t0), err
}

// runIntakeRep runs one repetition of an HTTP workload on fresh state:
// set-up, the timed window, then (outside it) the final advance, the
// output checks, close and recovery.
func runIntakeRep(spec intakeSpec, seed int64, baseDir string, traced bool) (*repResult, error) {
	dir, err := os.MkdirTemp(baseDir, spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &repResult{}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	m, trace, st, setup, err := setUp(spec, seed, dir, rec)
	if err != nil {
		return nil, err
	}
	res.setup = setup

	d := &driver{spec: spec, trace: trace, st: st, rec: rec, res: res}
	var subConn, ctlConn *http.Transport
	d.submit, subConn = oneConn()
	d.control, ctlConn = oneConn()
	defer subConn.CloseIdleConnections()
	defer ctlConn.CloseIdleConnections()

	runtime.GC()
	res.allocMB = allocMB(func() {
		bounds := make(chan boundary) // unbuffered: the submitter waits on the gate anyway
		ctlDone := make(chan struct{})
		w0 := time.Now()
		go func() {
			defer close(ctlDone)
			d.runControl(bounds)
		}()
		d.runSubmits(bounds)
		close(bounds)
		<-ctlDone
		res.window = time.Since(w0)
	})

	d.finish(m)
	res.ops.add(d.ctl)
	res.spans, res.trace, res.shardOf = rec.snapshot(), trace, d.shardOf
	return res, nil
}

// finish advances to the end of the span, checks the outputs, closes the
// stack and times recovery. All of it is outside the timed window.
func (d *driver) finish(m *cost.Model) {
	res, st := d.res, d.st
	epochsInWindow := len(res.advanceMS)
	d.advance(boundary{k: -1, to: simtime.Time(d.spec.span)})
	res.advanceMS = res.advanceMS[:epochsInWindow]

	topo, cat := m.Book().Topology(), m.Catalog()
	var acked workload.Set
	perShard := make([]workload.Set, d.spec.shards)
	for i, r := range d.trace {
		if res.acked[i] {
			acked = append(acked, r)
			perShard[d.shardOf[i]] = append(perShard[d.shardOf[i]], r)
		}
	}

	// The plan as a client sees it: valid for exactly the acked set,
	// overflow-free, and priced at the Ψ the service reports.
	code, body, err := roundTrip(d.control, http.MethodGet, st.url+"/v1/plan", nil)
	var plan server.PlanResponse // the gateway's reply has the same top-level fields
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &plan)
	}
	if err != nil || code != http.StatusOK || plan.Schedule == nil {
		res.ops.fail("final plan: status %d: %v", code, err)
		plan.Schedule = schedule.New()
	} else {
		res.ops.ok()
		res.planBytes = len(body)
	}
	res.planCost = float64(m.ScheduleCost(plan.Schedule))
	res.ops.check(plan.Schedule.Validate(topo, cat, acked), "plan valid for the acked set")
	if !d.spec.gw {
		// Shards plan against the full capacity each, so only their own
		// plans (below) are overflow-free, not the merged one.
		res.ops.check(overflowFree(m, plan.Schedule), "plan overflow-free")
	}
	res.ops.check(sameCost(res.planCost, float64(plan.Cost)), "reported cost is Ψ of the plan")

	// Each shard's own plan, in-process; kept for the recovery check.
	preClose := make([][]byte, len(st.shards))
	for i, srv := range st.shards {
		preClose[i] = getInProcess(srv, "/v1/plan")
		if !d.spec.gw {
			continue
		}
		var sp server.PlanResponse
		if err := json.Unmarshal(preClose[i], &sp); err != nil || sp.Schedule == nil {
			res.ops.fail("shard %d plan: %v", i, err)
			continue
		}
		res.ops.check(sp.Schedule.Validate(topo, cat, perShard[i]), fmt.Sprintf("shard %d plan valid for its acked set", i))
		res.ops.check(overflowFree(m, sp.Schedule), fmt.Sprintf("shard %d plan overflow-free", i))
	}
	if st.gw != nil {
		s := st.gw.Stats()
		res.gwStats = &s
	}
	for _, srv := range st.shards {
		var stats server.StatsResponse
		if json.Unmarshal(getInProcess(srv, "/v1/stats"), &stats) == nil {
			res.shed += int(stats.Overload.Shed)
		}
	}

	if err := st.close(); err != nil {
		res.ops.fail("close: %v", err)
	}

	// Recovery: reopen each data directory the way a restarted server
	// would, summed over shards. A refusal is timed and counted like a
	// success; only then is there no recovered plan to compare.
	for i, dir := range st.dirs {
		t0 := time.Now()
		srv, err := server.NewWithOptions(m, server.Options{DataDir: dir, Horizon: horizonConfig(), ShardID: shardID(i)})
		res.recover += time.Since(t0)
		if err != nil {
			res.recoverFailed++
			res.ops.fail("recover shard %d: %v", i, err)
			if knownFailure(err.Error()) {
				res.ops.known++
			}
			continue
		}
		res.ops.ok()
		rs := srv.Recovery()
		res.replayedSubmits += rs.ReplayedSubmits
		res.replayedAdvances += rs.ReplayedAdvances
		got := getInProcess(srv, "/v1/plan")
		var same error
		if !bytes.Equal(got, preClose[i]) {
			same = fmt.Errorf("recovered plan differs from the plan before close (%d vs %d bytes)", len(got), len(preClose[i]))
		}
		res.ops.check(same, fmt.Sprintf("shard %d recovered plan byte-identical", i))
		if err := srv.Close(); err != nil {
			res.ops.fail("close recovered shard %d: %v", i, err)
		}
	}
}

func overflowFree(m *cost.Model, s *schedule.Schedule) error {
	if n := len(occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), s).AllOverflows()); n > 0 {
		return fmt.Errorf("%d storage overflows", n)
	}
	return nil
}

// sameCost allows for the summation order differing between the service
// and the benchmark.
func sameCost(a, b float64) error {
	if diff := a - b; diff > 1e-9*a || diff < -1e-9*a {
		return fmt.Errorf("Ψ(plan) = %.6f, service reports %.6f", a, b)
	}
	return nil
}
