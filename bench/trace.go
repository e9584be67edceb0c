package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing from outside: the benchmark builds every http.Server itself, so
// it can wrap the client call, gateway.ServeHTTP and each server.ServeHTTP
// without touching the packages. Spans live in memory and are written out
// when the run ends.

// opKind is the kind of request a span belongs to.
type opKind int

const (
	opSubmit opKind = iota
	opAdvance
	opPlan
	numKinds
)

var kindNames = [numKinds]string{"submit", "advance", "plan"}

// Span layers, outermost first.
const (
	layerClient = iota
	layerGateway
	layerServer
	numLayers
)

var layerNames = [numLayers]string{"client", "gateway", "server"}

func kindOf(r *http.Request) (opKind, bool) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/reservations":
		return opSubmit, true
	case r.Method == http.MethodPost && r.URL.Path == "/v1/advance":
		return opAdvance, true
	case r.Method == http.MethodGet && r.URL.Path == "/v1/plan":
		return opPlan, true
	}
	return 0, false
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was created; Parent is the ID of the span that caused this
// one (0 for a client span); Req is the trace index of a submit, the
// boundary index of an advance, or the sequence number of a plan read, and
// is shared by all spans of one request. Shard is -1 outside a server.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Shard  int    `json:"shard"`

	layer int
	kind  opKind
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder collects spans. A nil recorder records nothing, which is the
// untraced pass.
//
// The driver keeps at most one request of each kind in flight (one
// submitter; one control connection doing advances and plan reads in
// turn), so the open client or gateway span of a kind is unambiguous and a
// new span's parent is simply the innermost open span of its kind.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  [numKinds][layerServer]int // open client/gateway span IDs
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID. A negative req inherits the
// parent's.
func (r *recorder) begin(layer int, kind opKind, shard, req int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	for l := layer - 1; l >= 0 && parent == 0; l-- {
		parent = r.open[kind][l]
	}
	if req < 0 && parent != 0 {
		req = r.spans[parent-1].Req
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: layerNames[layer] + "." + kindNames[kind],
		Start: now, Parent: parent, Req: req, Shard: shard,
		layer: layer, kind: kind,
	})
	if layer < layerServer {
		r.open[kind][layer] = id
	}
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if s.layer < layerServer && r.open[s.kind][s.layer] == id {
		r.open[s.kind][s.layer] = 0
	}
}

// wrap times every intake request h serves as a span of the given layer.
func (r *recorder) wrap(layer, shard int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kind, ok := kindOf(req)
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		id := r.begin(layer, kind, shard, -1)
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// snapshot returns the finished spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes spans by ID and lists each span's children.
type spanTree struct {
	spans    []span
	children map[int][]int // parent ID -> indexes into spans
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// selfMS is a span's duration minus the part of it its child spans cover.
// Children of one span may run concurrently (a broadcast), so their
// intervals are merged before subtracting: a fan-out costs its slowest
// branch, not the sum.
func (t spanTree) selfMS(s span) float64 {
	kids := t.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// byLayerKind returns the spans of one layer and kind in record order.
func byLayerKind(spans []span, layer int, kind opKind) []span {
	var out []span
	for _, s := range spans {
		if s.layer == layer && s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// blocked reports, for each work span, how long it overlapped a lock span
// on the same shard: the time the work spent queued behind the horizon
// lock an epoch close holds. locks must be in start order per shard, which
// record order guarantees.
func blocked(work, locks []span) []float64 {
	out := make([]float64, len(work))
	for i, w := range work {
		for _, l := range locks {
			if l.Shard != w.Shard {
				continue
			}
			a, b := max(w.Start, l.Start), min(w.End, l.End)
			if b > a {
				out[i] += float64(b-a) / 1e6
			}
		}
	}
	return out
}
