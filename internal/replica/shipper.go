package replica

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/wal"
)

// Shipper defaults.
const (
	DefaultInterval = 250 * time.Millisecond
	DefaultBatchMax = 1024
)

// ShipperConfig configures WAL shipping from a primary.
type ShipperConfig struct {
	// Source is the primary's base URL (e.g. "http://primary:8080").
	Source string
	// Interval is Run's poll period (default DefaultInterval). A poll
	// that applied a full batch re-polls immediately, so the interval
	// only paces an idle or caught-up follower.
	Interval time.Duration
	// BatchMax caps records per poll (default DefaultBatchMax).
	BatchMax int
	// Retry tunes the transport retry loop (jittered exponential backoff
	// honoring Retry-After; see internal/retryhttp).
	Retry retryhttp.Options
}

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.BatchMax <= 0 {
		c.BatchMax = DefaultBatchMax
	}
	return c
}

// Shipper ships the primary's WAL into a local follower service. It is
// the client half of the replication protocol: it resumes from the
// service's applied sequence, verifies every shipped record's CRC, and
// applies records through the service's idempotent replay entry point.
// Safe for concurrent use; Run is the long-lived driver and Poll a
// single deterministic round (the fault-injection harness drives Poll
// directly).
type Shipper struct {
	svc  *horizon.Service
	lead *Leadership
	cfg  ShipperConfig

	mu                 sync.Mutex
	primaryLastSeq     uint64
	synced             bool
	caughtUp           bool
	recordsApplied     uint64
	snapshotsInstalled uint64
	lastErr            string
}

// NewShipper builds a shipper feeding svc from cfg.Source under the
// node's leadership view.
func NewShipper(svc *horizon.Service, lead *Leadership, cfg ShipperConfig) *Shipper {
	return &Shipper{svc: svc, lead: lead, cfg: cfg.withDefaults()}
}

// Source returns the primary base URL this shipper pulls from.
func (sh *Shipper) Source() string { return sh.cfg.Source }

// Status returns the shipper's replication status combined with the
// node's leadership view.
func (sh *Shipper) Status() api.ReplicationStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	applied := sh.svc.AppliedSeq()
	st := api.ReplicationStatus{
		Role:               sh.lead.Role().String(),
		Epoch:              sh.lead.Epoch(),
		AppliedSeq:         applied,
		Source:             sh.cfg.Source,
		PrimaryLastSeq:     sh.primaryLastSeq,
		Synced:             sh.synced,
		CaughtUp:           sh.caughtUp && applied >= sh.primaryLastSeq,
		RecordsApplied:     sh.recordsApplied,
		SnapshotsInstalled: sh.snapshotsInstalled,
		LastError:          sh.lastErr,
	}
	if sh.primaryLastSeq > applied {
		st.Lag = sh.primaryLastSeq - applied
	}
	return st
}

// Poll performs one shipping round: fetch the tail after the applied
// sequence, verify, apply. It returns the number of records (or
// snapshot installs) applied, so callers can drain a backlog by polling
// until the count is zero.
func (sh *Shipper) Poll(ctx context.Context) (applied int, err error) {
	defer func() {
		sh.mu.Lock()
		if err != nil {
			sh.lastErr = err.Error()
		} else {
			sh.lastErr = ""
		}
		sh.mu.Unlock()
	}()
	if sh.lead.IsPrimary() {
		return 0, fmt.Errorf("replica: node is primary; shipping from %s stopped", sh.cfg.Source)
	}
	after := sh.svc.AppliedSeq()
	u := fmt.Sprintf("%s/v1/replication/wal?after=%d&epoch=%d&max=%d",
		sh.cfg.Source, after, sh.lead.Epoch(), sh.cfg.BatchMax)
	var batch Batch
	if err := retryhttp.GetJSON(ctx, sh.cfg.Retry, u, &batch); err != nil {
		return 0, fmt.Errorf("replica: fetch tail from %s: %w", sh.cfg.Source, err)
	}
	return sh.ApplyBatch(ctx, batch)
}

// ApplyBatch verifies and applies one batch. Records at or before the
// applied sequence are skipped (idempotency by sequence), so a
// duplicated delivery — a retried request whose first attempt did reach
// the applier — converges instead of diverging. Exported so tests can
// inject duplicate and reordered deliveries directly.
func (sh *Shipper) ApplyBatch(ctx context.Context, batch Batch) (applied int, err error) {
	sh.lead.Observe(batch.LeaderEpoch)
	if len(batch.Snapshot) > 0 && batch.SnapshotSeq > sh.svc.AppliedSeq() {
		if err := sh.svc.InstallSnapshot(batch.SnapshotSeq, batch.Snapshot); err != nil {
			return 0, err
		}
		sh.mu.Lock()
		sh.snapshotsInstalled++
		sh.mu.Unlock()
		applied++
	}
	for _, rec := range batch.Records {
		if err := rec.Verify(); err != nil {
			return applied, err
		}
		ok, err := sh.svc.ApplyReplicated(ctx, wal.Record{Seq: rec.Seq, Payload: rec.Payload})
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
			sh.mu.Lock()
			sh.recordsApplied++
			sh.mu.Unlock()
		}
	}
	sh.mu.Lock()
	sh.primaryLastSeq = batch.LastSeq
	sh.synced = true
	sh.caughtUp = sh.svc.AppliedSeq() >= batch.LastSeq
	sh.mu.Unlock()
	return applied, nil
}

// Drain polls until a round ships nothing new, leaving the follower
// caught up with the primary's tail as observed by that final round. The
// shipper's Status is point-in-time — it reports the primary's last seq
// as of the previous poll, which may be stale the moment a new record is
// journaled — so promotion MUST drain rather than trust Status, or a
// planned failover can silently drop the records acknowledged since the
// last poll.
func (sh *Shipper) Drain(ctx context.Context) error {
	for {
		n, err := sh.Poll(ctx)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// Run polls until the context is cancelled or the node is promoted.
// Transient failures are recorded in Status and retried on the next
// tick (on top of the per-request retry loop); a backlogged follower
// polls continuously until it drains, then settles to the interval.
func (sh *Shipper) Run(ctx context.Context) {
	t := time.NewTicker(sh.cfg.Interval)
	defer t.Stop()
	for {
		if sh.lead.IsPrimary() {
			return
		}
		n, err := sh.Poll(ctx)
		if err == nil && n > 0 {
			// Backlog: keep draining without waiting out the interval.
			select {
			case <-ctx.Done():
				return
			default:
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
