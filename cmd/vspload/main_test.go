package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// Smoke: generate a small pattern trace to disk, replay it against an
// in-process vspserve, and check the JSON result lands. This is the
// CI short-mode equivalent of `make load-demo`.
func TestSmokeAgainstServer(t *testing.T) {
	rig, err := testutil.Build(testutil.Params{
		Storages: 3, UsersPerStorage: 2, Titles: 8,
		CapacityGB: 4, RequestsPerUser: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithOptions(rig.Model, server.Options{
		Horizon: horizon.Config{EpochRequests: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	outPath := filepath.Join(dir, "load.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tw := workload.NewJSONLTraceWriter(f)
	p := workload.Pattern{
		Base:     workload.Config{Seed: 3},
		Requests: 60,
		Span:     4 * simtime.Hour,
	}
	if err := p.Stream(rig.Topo, rig.Catalog, tw.Write); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	err = run(options{
		target:          ts.URL,
		tracePath:       tracePath,
		concurrency:     4,
		advanceLagHours: 1,
		outPath:         outPath,
		quiet:           true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var res struct {
		Submitted int `json:"submitted"`
		Accepted  int `json:"accepted"`
		Submit    struct {
			N int `json:"n"`
		} `json:"submit_latency"`
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 60 || res.Accepted == 0 || res.Submit.N != 60 {
		t.Fatalf("result file: %+v", res)
	}
}

// Named results merge into an array: legacy single-object files are
// wrapped, same-name entries are replaced in place, foreign entries
// survive untouched.
func TestMergeNamed(t *testing.T) {
	entry := func(name string, p99 int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"name":%q,"p99":%d}`, name, p99))
	}
	parse := func(t *testing.T, b []byte) []map[string]any {
		t.Helper()
		var out []map[string]any
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("merged output not a JSON array: %v\n%s", err, b)
		}
		return out
	}

	// Empty file: a fresh one-element array.
	b, err := mergeNamed(nil, "a", entry("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := parse(t, b); len(got) != 1 || got[0]["name"] != "a" {
		t.Fatalf("fresh merge: %s", b)
	}

	// Legacy single object: wrapped as the first element, new entry after.
	legacy := []byte(`{"target":"http://old","submitted":9}`)
	b, err = mergeNamed(legacy, "a", entry("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	got := parse(t, b)
	if len(got) != 2 || got[0]["target"] != "http://old" || got[1]["name"] != "a" {
		t.Fatalf("legacy wrap: %s", b)
	}

	// Same-name entry replaced in place; the unnamed legacy entry and the
	// other named entry pass through.
	b2, err := mergeNamed(b, "a", entry("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	got = parse(t, b2)
	if len(got) != 2 || got[1]["p99"] != float64(2) {
		t.Fatalf("replace in place: %s", b2)
	}

	// A different name appends.
	b3, err := mergeNamed(b2, "b", entry("b", 3))
	if err != nil {
		t.Fatal(err)
	}
	if got = parse(t, b3); len(got) != 3 || got[2]["name"] != "b" {
		t.Fatalf("append: %s", b3)
	}

	// Garbage in the existing file is an error, not silent data loss.
	if _, err := mergeNamed([]byte("not json"), "a", entry("a", 1)); err == nil {
		t.Fatal("garbage existing file accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(options{}); err == nil {
		t.Fatal("missing -target/-trace accepted")
	}
	if err := run(options{target: "http://x", tracePath: "nope.csv"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(p, []byte("user,video,start_seconds\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{target: "http://x", tracePath: p, format: "parquet"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
