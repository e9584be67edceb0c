package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/wal"
)

// horizonConfig is the durable intake configuration every workload runs:
// no epoch trigger of the server's own (the driver closes epochs by trace
// index), fsync on every append, default snapshot period.
func horizonConfig() horizon.Config { return horizon.Config{Fsync: wal.FsyncAlways} }

// gate is closed once an epoch close has entered every shard's handler.
type gate struct {
	mu      sync.Mutex
	waiting int
	entered chan struct{}
}

func newGate(shards int) *gate { return &gate{waiting: shards, entered: make(chan struct{})} }

func (g *gate) arrive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting > 0 {
		if g.waiting--; g.waiting == 0 {
			close(g.entered)
		}
	}
}

// release opens the gate for an advance that returned without reaching
// every shard.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting > 0 {
		g.waiting = 0
		close(g.entered)
	}
}

// sequencer fixes which epoch admits each request. The submitter hands a
// boundary and a gate to the control connection and holds its next request
// until the advance has entered every shard's handler (and epochHeadStart
// longer), so the advance reaches the horizon lock first and epoch k admits
// exactly the requests up to the boundary on every run. Without it the two
// connections race and the work counts differ from run to run.
type sequencer struct{ current atomic.Pointer[gate] }

func (q *sequencer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kind, ok := kindOf(r); ok && kind == opAdvance {
			if g := q.current.Load(); g != nil {
				g.arrive()
			}
		}
		h.ServeHTTP(w, r)
	})
}

// node is one listening http.Server.
type node struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	go n.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	return n, nil
}

// stack is the system under test: durable shards and, optionally, a
// gateway in front of them.
type stack struct {
	url    string // what the two client connections talk to
	seq    *sequencer
	shards []*server.Server
	dirs   []string
	nodes  []*node
	gw     *gateway.Gateway
	gwConn *http.Transport
}

func shardID(i int) string { return fmt.Sprintf("s%d", i) }

// startStack brings up nShards durable servers under dir and, when
// gatewayed, a round-robin gateway over them. rec may be nil.
func startStack(m *cost.Model, nShards int, gatewayed bool, dir string, rec *recorder) (*stack, error) {
	st := &stack{seq: &sequencer{}}
	for i := 0; i < nShards; i++ {
		d := filepath.Join(dir, shardID(i))
		srv, err := server.NewWithOptions(m, server.Options{DataDir: d, Horizon: horizonConfig(), ShardID: shardID(i)})
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards, st.dirs = append(st.shards, srv), append(st.dirs, d)
		n, err := listen(st.seq.wrap(rec.wrap(layerServer, i, srv)))
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	st.url = st.nodes[0].url
	if !gatewayed {
		return st, nil
	}
	cfg := gateway.Config{Policy: gateway.RoundRobin()}
	for i, n := range st.nodes {
		cfg.Shards = append(cfg.Shards, gateway.ShardConfig{ID: shardID(i), Primary: n.url})
	}
	st.gwConn = &http.Transport{MaxIdleConnsPerHost: 4}
	cfg.Retry = retryhttp.Options{Client: &http.Client{Transport: st.gwConn}}
	gw, err := gateway.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	n, err := listen(rec.wrap(layerGateway, -1, gw))
	if err != nil {
		st.close()
		return nil, err
	}
	st.nodes = append(st.nodes, n)
	st.url = n.url
	return st, nil
}

// close drains the listeners front to back, then closes the gateway and
// the journals. It is safe on a partly built stack.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	for i := len(st.nodes) - 1; i >= 0; i-- {
		if err := st.nodes[i].srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	if st.gw != nil {
		st.gw.Close()
		st.gwConn.CloseIdleConnections()
	}
	for _, srv := range st.shards {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// getInProcess answers a GET from a handler without a connection.
func getInProcess(h http.Handler, path string) []byte {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Body.Bytes()
}
