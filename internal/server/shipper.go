package server

import (
	"context"
	"encoding/json"
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

// shipReplyTimeout bounds how long one attempt of a round waits for the
// primary's reply to start. It is longer than the primary's hold, so a held
// poll starts its reply well within it; a primary that takes the connection
// and never answers fails the round, and the status says so, instead of
// hanging the shipper. Once the reply has started, its body streams under
// the run's context alone: a large snapshot on a slow link takes what it
// takes, where a deadline on the whole fetch would cut every round at the
// same point and the standby would never sync.
const shipReplyTimeout = 4 * replHold

// errNoReply is the cause of a round cut by shipReplyTimeout.
var errNoReply = fmt.Errorf("no reply within %v", shipReplyTimeout)

// replyDeadline is one round's transport: an attempt whose reply has not
// started within shipReplyTimeout cancels the round.
type replyDeadline struct {
	next   http.RoundTripper
	cancel context.CancelCauseFunc
}

func (d replyDeadline) RoundTrip(req *http.Request) (*http.Response, error) {
	t := time.AfterFunc(shipReplyTimeout, func() { d.cancel(errNoReply) })
	defer t.Stop()
	return d.next.RoundTrip(req)
}

// Shipper ships the primary's WAL into a local follower service. It is
// the client half of the replication protocol: it resumes from the
// service's applied sequence, proving with its CRC there that it shares the
// primary's history up to it, decodes each batch strictly, verifies every
// shipped record's CRC, and applies records through the service's
// idempotent replay entry point. A caught-up follower's poll is held by
// the primary until the next record (see handleReplWAL), so Run polls
// again as soon as a round ends.
// Safe for concurrent use; Run is the long-lived driver and Poll a
// single deterministic round (the fault-injection harness drives Poll
// directly).
type Shipper struct {
	svc    *horizon.Service
	lead   *Leadership
	source string // the primary's base URL (e.g. "http://primary:8080")
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
// the node's leadership view.
func NewShipper(svc *horizon.Service, lead *Leadership, source string) *Shipper {
	return &Shipper{svc: svc, lead: lead, source: source}
}

// Poll performs one shipping round: fetch the tail after the applied
// sequence, verify, apply. It returns the number of records (or
// snapshot installs) applied. A caught-up round waits up to one hold on a
// primary that holds polls; a round whose reply has not started within
// shipReplyTimeout fails.
func (sh *Shipper) Poll(ctx context.Context) (applied int, err error) {
	applied, _, err = sh.poll(ctx)
	return applied, err
}

// poll is Poll, also reporting whether the round left the follower caught
// up with the primary's last seq as the primary read it for the reply.
func (sh *Shipper) poll(ctx context.Context) (applied int, caughtUp bool, err error) {
	defer func() {
		sh.mu.Lock()
		if err != nil {
			// A failed round proves nothing about the tail: the follower is
			// not caught up until a round succeeds and says so. Synced
			// stands, so a failover may still promote it.
			sh.lastErr = err.Error()
			sh.caughtUp = false
		} else {
			sh.lastErr = ""
		}
		sh.mu.Unlock()
	}()
	if sh.lead.IsPrimary() {
		return 0, false, fmt.Errorf("server: node is primary; shipping from %s stopped", sh.source)
	}
	after, crc, ok := sh.svc.ResumePoint()
	u := fmt.Sprintf("%s/v1/replication/wal?after=%d&epoch=%d&max=%d",
		sh.source, after, sh.lead.Epoch(), shipBatchMax)
	if ok {
		u += "&crc=" + strconv.FormatUint(uint64(crc), 10)
	}
	var batch api.Batch
	fetchCtx, cancel := context.WithCancelCause(ctx)
	opts := sh.retry
	next := http.DefaultTransport
	if opts.Client != nil && opts.Client.Transport != nil {
		next = opts.Client.Transport
	}
	opts.Client = &http.Client{Transport: replyDeadline{next: next, cancel: cancel}}
	err = retryhttp.GetBody(fetchCtx, opts, u, func(body []byte) error { return api.DecodeStrict(body, &batch) })
	if cause := context.Cause(fetchCtx); err != nil && errors.Is(cause, errNoReply) {
		err = cause
	}
	cancel(nil)
	if err != nil {
		var se *retryhttp.StatusError
		if errors.As(err, &se) && se.Code == http.StatusConflict {
			// A source that no longer leads names the epoch it was fenced
			// under; adopting it makes this node's promotion supersede it.
			var ref api.StaleRefusal
			if json.Unmarshal(se.Body, &ref) == nil {
				sh.lead.Observe(ref.LeaderEpoch)
			}
			if strings.Contains(se.Message, api.Diverged) {
				// The primary's history is not this node's: it is not a
				// standby any failover may promote, whatever an earlier poll
				// found.
				sh.mu.Lock()
				sh.synced, sh.caughtUp = false, false
				sh.mu.Unlock()
			}
		}
		return 0, false, fmt.Errorf("server: fetch tail from %s: %w", sh.source, err)
	}
	applied, err = sh.ApplyBatch(ctx, batch)
	return applied, err == nil && sh.svc.AppliedSeq() >= batch.LastSeq, err
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

// Drain polls until a round leaves the follower caught up with the
// primary's last seq as the primary read it for that round's reply: the
// tail at that moment, the same thing a round that ships nothing observes.
// A backlogged follower's rounds are answered at once, so only a drain that
// starts caught up waits on a hold, at most one, and a primary taking
// traffic ends even that early. The shipper's status is point-in-time — it
// reports the primary's last seq as of the previous poll, which may be
// stale the moment a new record is journaled — so promotion MUST drain
// rather than trust it, or a planned failover can silently drop the
// records acknowledged since the last poll.
func (sh *Shipper) Drain(ctx context.Context) error {
	for {
		_, caughtUp, err := sh.poll(ctx)
		if err != nil || caughtUp {
			return err
		}
	}
}

// Run polls, applies and polls again until the context is cancelled or the
// node is promoted; the primary's hold paces a caught-up follower. Its one
// pacing rule: after a round that ships nothing or fails, the next starts
// no sooner than one hold after that round began, so a primary that answers
// at once — one that is down or refusing, or an older one that does not
// hold — sees one poll a hold, not a hot loop. Failures are recorded in the
// status (on top of the per-request retry loop).
func (sh *Shipper) Run(ctx context.Context) {
	for !sh.lead.IsPrimary() {
		began := time.Now()
		if n, err := sh.Poll(ctx); err == nil && n > 0 {
			continue
		}
		t := time.NewTimer(time.Until(began.Add(replHold)))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}
