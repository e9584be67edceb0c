package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/wal"
)

// The layer ladder replays the traced repetition's trace, routing and
// epoch boundaries straight into successively deeper public entry points,
// one call at a time, and times each call: the durable horizon service,
// the in-memory one, then the write-ahead log alone. A layer's self time
// is its rung minus the rung below.

// rung is one replay into horizon services.
type rung struct {
	submitMS  []float64 // per request
	advanceMS []float64 // per (epoch close, shard), in boundary then shard order
	cloneMS   []float64 // Committed() after each epoch close, per shard
	counts    workCounts
}

// ladderResult is everything the ladder timed.
type ladderResult struct {
	durable, memory rung
	counts          workCounts // the durable rung's, to compare with the HTTP run

	appendMS      []float64
	appends       int
	bytesPerRec   float64
	readMS        float64
	snapWriteMS   float64
	snapshotBytes int
}

// replay feeds the trace into one service per shard. The final advance to
// the end of the span is counted but not timed into advanceMS, as in the
// HTTP run.
func replay(spec intakeSpec, r *repResult, svcs []*horizon.Service) (rung, error) {
	var out rung
	out.submitMS = make([]float64, len(r.trace))
	ctx := context.Background()
	advance := func(to simtime.Time, timed bool) error {
		for _, svc := range svcs {
			t0 := time.Now()
			res, err := svc.Advance(ctx, to)
			d := ms(time.Since(t0))
			if err != nil {
				return err
			}
			c := &out.counts
			c.Admitted += res.Admitted
			c.Replanned += res.Replanned
			c.Overflows += res.Overflows
			c.Victims += len(res.Victims)
			if timed {
				out.advanceMS = append(out.advanceMS, d)
				t1 := time.Now()
				svc.Committed()
				out.cloneMS = append(out.cloneMS, ms(time.Since(t1)))
			}
		}
		out.counts.Epochs++
		return nil
	}
	for i, req := range r.trace {
		svc := svcs[r.shardOf[i]]
		t0 := time.Now()
		_, err := svc.Submit(req.Start, req)
		out.submitMS[i] = ms(time.Since(t0))
		if err != nil {
			return out, err
		}
		if (i+1)%spec.epoch == 0 {
			if to := req.Start.Add(-spec.lag); to >= 0 {
				if err := advance(to, true); err != nil {
					return out, err
				}
			}
		}
	}
	return out, advance(simtime.Time(spec.span), false)
}

// journalOp mirrors the payload horizon journals per operation, so the WAL
// rung appends records of the real length. A test compares it with what a
// durable service actually wrote.
type journalOp struct {
	Op    string          `json:"op"`
	At    simtime.Time    `json:"at,omitempty"`
	User  topology.UserID `json:"user,omitempty"`
	Video media.VideoID   `json:"video,omitempty"`
	Start simtime.Time    `json:"start,omitempty"`
	To    simtime.Time    `json:"to,omitempty"`
}

func runLadder(spec intakeSpec, r *repResult, dataDir string) (*ladderResult, error) {
	dir, err := os.MkdirTemp(dataDir, spec.name+"-ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := spec.rig.model()
	if err != nil {
		return nil, err
	}
	out := &ladderResult{}

	// Rung 1: durable services, opened the way the server opens them.
	durable := make([]*horizon.Service, spec.shards)
	for i := range durable {
		if durable[i], err = horizon.Recover(filepath.Join(dir, shardID(i)), m, horizonConfig()); err != nil {
			return nil, err
		}
	}
	out.durable, err = replay(spec, r, durable)
	for _, svc := range durable {
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	out.counts = out.durable.counts

	// Rung 2: the same work without a journal.
	memory := make([]*horizon.Service, spec.shards)
	for i := range memory {
		memory[i] = horizon.New(m, horizonConfig())
	}
	if out.memory, err = replay(spec, r, memory); err != nil {
		return nil, err
	}

	return out, walRung(spec, r, dir, out)
}

// walRung appends one record per journaled operation of shard 0's share of
// the run under fsync always, then reads the log back and rewrites the
// run's snapshot.
func walRung(spec intakeSpec, r *repResult, dir string, out *ladderResult) error {
	var payloads [][]byte
	for i, req := range r.trace {
		if r.shardOf[i] == 0 {
			b, _ := json.Marshal(journalOp{Op: "submit", At: req.Start, User: req.User, Video: req.Video, Start: req.Start})
			payloads = append(payloads, b)
		}
		if (i+1)%spec.epoch == 0 {
			if to := req.Start.Add(-spec.lag); to >= 0 {
				b, _ := json.Marshal(journalOp{Op: "advance", To: to})
				payloads = append(payloads, b)
			}
		}
	}
	path := filepath.Join(dir, "ladder.log")
	log, _, _, err := wal.Open(path, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	total := 0
	for _, p := range payloads {
		t0 := time.Now()
		_, err := log.Append(p)
		out.appendMS = append(out.appendMS, ms(time.Since(t0)))
		if err != nil {
			log.Close()
			return err
		}
		total += len(p)
	}
	if err := log.Close(); err != nil {
		return err
	}
	out.appends = len(payloads)
	out.bytesPerRec = float64(total) / float64(len(payloads))

	t0 := time.Now()
	_, _, err = wal.ReadLogAfter(path, 0)
	out.readMS = ms(time.Since(t0))
	if err != nil {
		return err
	}

	// The durable rung's shard 0 left a snapshot behind: the run's own.
	seq, snap, ok, err := wal.ReadSnapshot(filepath.Join(dir, shardID(0)))
	if err != nil || !ok {
		return err
	}
	out.snapshotBytes = len(snap)
	t0 = time.Now()
	err = wal.WriteSnapshot(dir, seq, snap)
	out.snapWriteMS = ms(time.Since(t0))
	return err
}
