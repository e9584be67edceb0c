package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/wal"
)

// shipBatchMax caps the records one poll asks for.
const shipBatchMax = 1024

// Shipper ships the primary's WAL into a local follower service. It is
// the client half of the replication protocol: it resumes from the
// service's applied sequence, proving with its CRC there that it shares the
// primary's history up to it, decodes each batch strictly, verifies every
// shipped record's CRC, and applies records through the service's
// idempotent replay entry point.
// Safe for concurrent use; Run is the long-lived driver and Poll a
// single deterministic round (the fault-injection harness drives Poll
// directly).
type Shipper struct {
	svc    *horizon.Service
	lead   *Leadership
	source string        // the primary's base URL (e.g. "http://primary:8080")
	every  time.Duration // Run's poll period; a backlog re-polls at once
	retry  retryhttp.Options

	mu                 sync.Mutex
	primaryLastSeq     uint64
	synced             bool
	caughtUp           bool
	recordsApplied     uint64
	snapshotsInstalled uint64
	lastErr            string
}

// NewShipper builds a shipper feeding svc from the primary at source under
// the node's leadership view, polling every period while idle.
func NewShipper(svc *horizon.Service, lead *Leadership, source string, every time.Duration) *Shipper {
	return &Shipper{svc: svc, lead: lead, source: source, every: every}
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
		return 0, fmt.Errorf("server: node is primary; shipping from %s stopped", sh.source)
	}
	after, crc, ok := sh.svc.ResumePoint()
	u := fmt.Sprintf("%s/v1/replication/wal?after=%d&epoch=%d&max=%d",
		sh.source, after, sh.lead.Epoch(), shipBatchMax)
	if ok {
		u += "&crc=" + strconv.FormatUint(uint64(crc), 10)
	}
	var batch api.Batch
	if err := retryhttp.GetBody(ctx, sh.retry, u, func(body []byte) error { return api.DecodeStrict(body, &batch) }); err != nil {
		var se *retryhttp.StatusError
		if errors.As(err, &se) && se.Code == http.StatusConflict && strings.Contains(se.Message, api.Diverged) {
			// The primary's history is not this node's: it is not a standby
			// any failover may promote, whatever an earlier poll found.
			sh.mu.Lock()
			sh.synced, sh.caughtUp = false, false
			sh.mu.Unlock()
		}
		return 0, fmt.Errorf("server: fetch tail from %s: %w", sh.source, err)
	}
	return sh.ApplyBatch(ctx, batch)
}

// ApplyBatch verifies and applies one batch. Records at or before the
// applied sequence are skipped (idempotency by sequence), so a
// duplicated delivery — a retried request whose first attempt did reach
// the applier — converges instead of diverging. A record whose checksum
// does not match — corrupted in transit, or by a disagreeing
// implementation — is refused before it reaches the applier. Exported so
// tests can inject duplicate and reordered deliveries directly.
func (sh *Shipper) ApplyBatch(ctx context.Context, batch api.Batch) (applied int, err error) {
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
		if err := verifyRecord(rec); err != nil {
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

// verifyRecord checks a shipped record against its WAL checksum.
func verifyRecord(rec api.Record) error {
	if got := wal.Checksum(rec.Seq, rec.Payload); got != rec.CRC {
		return fmt.Errorf("server: record seq %d checksum mismatch (shipped %08x, computed %08x)", rec.Seq, rec.CRC, got)
	}
	return nil
}

// Drain polls until a round ships nothing new, leaving the follower
// caught up with the primary's tail as observed by that final round. The
// shipper's status is point-in-time — it reports the primary's last seq
// as of the previous poll, which may be stale the moment a new record is
// journaled — so promotion MUST drain rather than trust it, or a
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
// Transient failures are recorded in the status and retried on the next
// tick (on top of the per-request retry loop); a backlogged follower
// polls continuously until it drains, then settles to the period.
func (sh *Shipper) Run(ctx context.Context) {
	t := time.NewTicker(sh.every)
	defer t.Stop()
	for {
		if sh.lead.IsPrimary() {
			return
		}
		n, err := sh.Poll(ctx)
		if err == nil && n > 0 {
			// Backlog: keep draining without waiting out the period.
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
