package workload

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// Trace I/O. Two interchange formats carry reservation logs:
//
//   - CSV with the columns user,video,start_seconds and an optional
//     header row — the original format, compact and spreadsheet-able;
//   - JSONL with one default-marshaled Request per line — the same
//     objects a JSON batch file holds, newline-delimited so a trace
//     can be produced and consumed record by record.
//
// Both run through the TraceWriter/TraceReader iterator pair, so a
// million-request trace streams between the generator, the disk and the
// load harness without the full request set ever being resident. The
// whole-set helpers (WriteCSV, ReadCSV) remain as thin wrappers.

// TraceWriter emits reservation requests one at a time. Close flushes
// buffered output; it does not close the underlying io.Writer.
type TraceWriter interface {
	Write(Request) error
	Close() error
}

// TraceReader yields reservation requests one at a time in file order,
// returning io.EOF after the last one. Readers validate every record
// against their topology and catalog.
type TraceReader interface {
	Next() (Request, error)
}

// --- CSV ---

type csvTraceWriter struct {
	cw    *csv.Writer
	wrote bool
}

// NewCSVTraceWriter streams requests as CSV rows; the header row is
// written before the first record.
func NewCSVTraceWriter(w io.Writer) TraceWriter {
	return &csvTraceWriter{cw: csv.NewWriter(w)}
}

func (t *csvTraceWriter) Write(r Request) error {
	if !t.wrote {
		t.wrote = true
		if err := t.cw.Write([]string{"user", "video", "start_seconds"}); err != nil {
			return err
		}
	}
	return t.cw.Write([]string{
		strconv.Itoa(int(r.User)),
		strconv.Itoa(int(r.Video)),
		strconv.FormatInt(int64(r.Start), 10),
	})
}

func (t *csvTraceWriter) Close() error {
	if !t.wrote {
		// An empty trace still carries its header, so readers can tell
		// "no reservations" from "not a trace".
		if err := t.cw.Write([]string{"user", "video", "start_seconds"}); err != nil {
			return err
		}
	}
	t.cw.Flush()
	return t.cw.Error()
}

type csvTraceReader struct {
	cr   *csv.Reader
	topo *topology.Topology
	cat  *media.Catalog
	line int
}

// NewCSVTraceReader streams a CSV reservation log, validating each row.
// A first row of "user,video,start_seconds" is treated as a header and
// skipped.
func NewCSVTraceReader(r io.Reader, topo *topology.Topology, catalog *media.Catalog) TraceReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	return &csvTraceReader{cr: cr, topo: topo, cat: catalog}
}

func (t *csvTraceReader) Next() (Request, error) {
	for {
		rec, err := t.cr.Read()
		if err == io.EOF {
			return Request{}, io.EOF
		}
		if err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: %w", t.line+1, err)
		}
		t.line++
		if t.line == 1 && rec[0] == "user" {
			continue
		}
		user, err := strconv.Atoi(rec[0])
		if err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: bad user %q", t.line, rec[0])
		}
		video, err := strconv.Atoi(rec[1])
		if err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: bad video %q", t.line, rec[1])
		}
		start, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: bad start %q", t.line, rec[2])
		}
		req := Request{
			User:  topology.UserID(user),
			Video: media.VideoID(video),
			Start: simtime.Time(start),
		}
		if err := req.Validate(t.topo, t.cat); err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: %w", t.line, err)
		}
		return req, nil
	}
}

// Validate checks that the reservation names a user of the topology and a
// video of the catalog and starts at a non-negative time: the screening the
// trace readers and the horizon's intake and snapshot door apply. A nil
// topology or catalog skips the respective bounds check (a request body is
// screened so before its shard is known, and the load harness replays traces
// against a remote service that enforces them itself); negative IDs and start
// times are always rejected.
func (r Request) Validate(topo *topology.Topology, catalog *media.Catalog) error {
	if int(r.User) < 0 || (topo != nil && int(r.User) >= topo.NumUsers()) {
		return fmt.Errorf("unknown user %d", r.User)
	}
	if int(r.Video) < 0 || (catalog != nil && int(r.Video) >= catalog.Len()) {
		return fmt.Errorf("unknown video %d", r.Video)
	}
	if r.Start < 0 {
		return fmt.Errorf("negative start %d", int64(r.Start))
	}
	return nil
}

// --- JSONL ---

type jsonlTraceWriter struct {
	bw *bufio.Writer
}

// NewJSONLTraceWriter streams requests as newline-delimited JSON, one
// default-marshaled Request object per line.
func NewJSONLTraceWriter(w io.Writer) TraceWriter {
	return &jsonlTraceWriter{bw: bufio.NewWriter(w)}
}

func (t *jsonlTraceWriter) Write(r Request) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := t.bw.Write(b); err != nil {
		return err
	}
	return t.bw.WriteByte('\n')
}

func (t *jsonlTraceWriter) Close() error { return t.bw.Flush() }

type jsonlTraceReader struct {
	sc   *bufio.Scanner
	topo *topology.Topology
	cat  *media.Catalog
	line int
}

// NewJSONLTraceReader streams a JSONL reservation log, validating each
// record. Blank lines are skipped.
func NewJSONLTraceReader(r io.Reader, topo *topology.Topology, catalog *media.Catalog) TraceReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &jsonlTraceReader{sc: sc, topo: topo, cat: catalog}
}

func (t *jsonlTraceReader) Next() (Request, error) {
	for t.sc.Scan() {
		t.line++
		b := t.sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(b, &req); err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: %w", t.line, err)
		}
		if err := req.Validate(t.topo, t.cat); err != nil {
			return Request{}, fmt.Errorf("workload: trace line %d: %w", t.line, err)
		}
		return req, nil
	}
	if err := t.sc.Err(); err != nil {
		return Request{}, fmt.Errorf("workload: trace line %d: %w", t.line+1, err)
	}
	return Request{}, io.EOF
}

// --- whole-set helpers ---

// ReadAllTrace drains a reader into a chronologically sorted Set.
func ReadAllTrace(tr TraceReader) (Set, error) {
	var set Set
	for {
		r, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		set = append(set, r)
	}
	SortChronological(set)
	return set, nil
}

// WriteCSV writes the set as CSV with a header row.
func WriteCSV(w io.Writer, s Set) error {
	tw := NewCSVTraceWriter(w)
	for _, r := range s {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Close()
}

// ReadCSV parses a reservation log and validates every row against the
// topology and catalog. A first row of "user,video,start_seconds" is
// treated as a header and skipped; the result is sorted chronologically.
func ReadCSV(r io.Reader, topo *topology.Topology, catalog *media.Catalog) (Set, error) {
	return ReadAllTrace(NewCSVTraceReader(r, topo, catalog))
}

// --- streaming generation ---

// PatternReader adapts a Pattern generator into a TraceReader: the
// generator runs in a background goroutine feeding a small bounded
// channel, so the reader side consumes a multi-million-request trace in
// constant memory without an intermediate file. Close the reader to
// release the generator early.
type PatternReader struct {
	ch   chan Request
	stop chan struct{}
	done chan struct{}
	err  error // set before ch closes
}

// NewPatternReader starts generating p's trace. buffer is the channel
// depth between generator and consumer (<= 0 picks a small default).
func NewPatternReader(topo *topology.Topology, cat *media.Catalog, p Pattern, buffer int) *PatternReader {
	if buffer <= 0 {
		buffer = 256
	}
	pr := &PatternReader{
		ch:   make(chan Request, buffer),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(pr.done)
		err := p.Stream(topo, cat, func(r Request) error {
			select {
			case pr.ch <- r:
				return nil
			case <-pr.stop:
				return errReaderClosed
			}
		})
		if err == errReaderClosed {
			err = nil
		}
		pr.err = err
		close(pr.ch)
	}()
	return pr
}

var errReaderClosed = fmt.Errorf("workload: pattern reader closed")

// Next returns the next generated request, io.EOF at the end of the
// trace, or the generator's error.
func (pr *PatternReader) Next() (Request, error) {
	r, ok := <-pr.ch
	if !ok {
		if pr.err != nil {
			return Request{}, pr.err
		}
		return Request{}, io.EOF
	}
	return r, nil
}

// Close stops the generator goroutine; pending requests are discarded.
// It is safe to call after the stream is drained.
func (pr *PatternReader) Close() {
	select {
	case <-pr.stop:
	default:
		close(pr.stop)
	}
	<-pr.done
}
