package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// README's Performance table quotes BENCH_scheduler.json. Each row names a
// benchmark in its first cell — "…/x" continues the previous row's name
// below its first "/" — and its B/op and allocs/op cells must read what the
// committed record holds for that name (its first entry: the -cpu 1 run
// where there are several), formatted by tableBytes and tableAllocs. ns/op
// moves with the machine and is not checked. Re-record with `make
// bench-json`, then update the rows this test names.
func TestReadmeTableMatchesRecord(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_scheduler.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]Benchmark)
	for _, b := range rep.Benchmarks {
		if _, seen := recorded[b.Name]; !seen {
			recorded[b.Name] = b
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Performance\n")
	if !ok {
		t.Fatal("README has no Performance section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rows, prev := 0, ""
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // not a benchmark row: prose, the header or its rule
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if rest, cont := strings.CutPrefix(name, "…/"); cont {
			base, _, _ := strings.Cut(prev, "/")
			name = base + "/" + rest
		}
		prev = name
		rows++
		b, ok := recorded[name]
		if !ok {
			t.Errorf("README row %q names no benchmark in BENCH_scheduler.json", name)
			continue
		}
		gotB, gotA := strings.TrimSpace(cells[4]), strings.TrimSpace(cells[5])
		if wantB, wantA := tableBytes(b.BytesPerOp), tableAllocs(b.AllocsPerOp); gotB != wantB || gotA != wantA {
			t.Errorf("README row %q reads %s, %s; the record says | %s | %s |", name, gotB, gotA, wantB, wantA)
		}
	}
	if rows == 0 {
		t.Fatal("found no benchmark rows in README's Performance table")
	}
}

// tableBytes formats B/op as the table does: bytes exact below 1 kB, kB
// with one decimal below 100 kB, MB with two decimals below 10 MB and one
// below 100 MB, GB with two decimals above.
func tableBytes(b int64) string {
	f := float64(b)
	switch {
	case b < 1e3:
		return fmt.Sprintf("%d B", b)
	case b < 1e5:
		return fmt.Sprintf("%.1f kB", f/1e3)
	case b < 1e7:
		return fmt.Sprintf("%.2f MB", f/1e6)
	case b < 1e8:
		return fmt.Sprintf("%.1f MB", f/1e6)
	default:
		return fmt.Sprintf("%.2f GB", f/1e9)
	}
}

// tableAllocs formats allocs/op as the table does: comma-grouped below
// 100 000, millions with two decimals above.
func tableAllocs(a int64) string {
	if a >= 1e5 {
		return fmt.Sprintf("%.2f M", float64(a)/1e6)
	}
	s := strconv.FormatInt(a, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func TestTableFormats(t *testing.T) {
	for _, tc := range []struct {
		b      int64
		bytes  string
		a      int64
		allocs string
	}{
		{661, "661 B", 9, "9"},
		{18197, "18.2 kB", 208, "208"},
		{183288, "0.18 MB", 1141, "1,141"},
		{2179694, "2.18 MB", 13924, "13,924"},
		{13557329, "13.6 MB", 92858, "92,858"},
		{493926880, "0.49 GB", 657821, "0.66 M"},
	} {
		if got := tableBytes(tc.b); got != tc.bytes {
			t.Errorf("tableBytes(%d) = %q, want %q", tc.b, got, tc.bytes)
		}
		if got := tableAllocs(tc.a); got != tc.allocs {
			t.Errorf("tableAllocs(%d) = %q, want %q", tc.a, got, tc.allocs)
		}
	}
}
