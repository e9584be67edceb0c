package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/vodsim/vsp/internal/horizon
cpu: Example CPU
BenchmarkHorizonAdvance-8             36          31018870 ns/op        14074702 B/op     135689 allocs/op
BenchmarkFullResolve-8                 1        3638931633 ns/op       1604029008 B/op  15832805 allocs/op
PASS
ok      github.com/vodsim/vsp/internal/horizon  5.812s
pkg: github.com/vodsim/vsp/internal/scheduler
BenchmarkSchedule-8                    3         400123456 ns/op
BenchmarkSchedulePhase1                5         100000000 ns/op
BenchmarkSchedulePhase1-4             18          28000000 ns/op
PASS
ok      github.com/vodsim/vsp/internal/scheduler        2.101s
`

func TestParse(t *testing.T) {
	rep, err := parseWithCPU(strings.NewReader(sample), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	adv := rep.Benchmarks[0]
	if adv.Name != "BenchmarkHorizonAdvance" || adv.Iterations != 36 || adv.CPU != 8 {
		t.Fatalf("first benchmark: %+v", adv)
	}
	if adv.NsPerOp != 31018870 || adv.BytesPerOp != 14074702 || adv.AllocsPerOp != 135689 {
		t.Fatalf("metrics: %+v", adv)
	}
	// BenchmarkSchedule ran without -benchmem: alloc fields stay zero.
	sched := rep.Benchmarks[2]
	if sched.Name != "BenchmarkSchedule" || sched.BytesPerOp != 0 || sched.AllocsPerOp != 0 {
		t.Fatalf("schedule benchmark: %+v", sched)
	}
	// A suffix-free line (GOMAXPROCS=1 run) parses with CPU 0; the -cpu 4
	// run of the same benchmark keeps the same name with CPU 4.
	p1 := rep.Benchmarks[3]
	if p1.Name != "BenchmarkSchedulePhase1" || p1.CPU != 0 {
		t.Fatalf("phase-1 sequential benchmark: %+v", p1)
	}
	if got := rep.Benchmarks[4]; got.Name != "BenchmarkSchedulePhase1" || got.CPU != 4 {
		t.Fatalf("phase-1 parallel benchmark: %+v", got)
	}
	want := 3638931633.0 / 31018870.0
	if math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("speedup = %v, want %v", rep.HorizonSpeedup, want)
	}
	if wantP1 := 100000000.0 / 28000000.0; math.Abs(rep.Phase1ParallelSpeedup-wantP1) > 1e-9 {
		t.Fatalf("phase-1 speedup = %v, want %v", rep.Phase1ParallelSpeedup, wantP1)
	}
	if rep.GoVersion == "" || rep.GOOS == "" || rep.GOARCH == "" {
		t.Fatalf("environment fields missing: %+v", rep)
	}
	if rep.NumCPU != 8 {
		t.Fatalf("num_cpu = %d, want 8", rep.NumCPU)
	}
	if rep.ParallelNote != "" {
		t.Fatalf("multi-core report flagged: %q", rep.ParallelNote)
	}
}

// Regression: on a 1-core host (the CI container), a -cpu 1,4 run of
// BenchmarkSchedulePhase1 timeslices one hardware thread and the derived
// "speedup" (0.37–0.57 in past committed reports) is pure noise that
// reads as a parallelism regression. The parallel ratios must be
// omitted — and the omission explained — while the horizon ratio, which
// compares two algorithms at one GOMAXPROCS, survives.
func TestParallelSpeedupsOmittedOnSingleCore(t *testing.T) {
	rep, err := parseWithCPU(strings.NewReader(sample), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1ParallelSpeedup != 0 {
		t.Fatalf("phase-1 speedup %v recorded on a 1-core host", rep.Phase1ParallelSpeedup)
	}
	if rep.GatewaySubmitSpeedup != 0 {
		t.Fatalf("gateway speedup %v recorded on a 1-core host", rep.GatewaySubmitSpeedup)
	}
	if rep.ParallelNote == "" {
		t.Fatal("omission not explained in parallel_speedup_note")
	}
	if rep.NumCPU != 1 {
		t.Fatalf("num_cpu = %d, want 1", rep.NumCPU)
	}
	// The same-GOMAXPROCS algorithmic ratio is still valid on one core.
	if want := 3638931633.0 / 31018870.0; math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("horizon speedup = %v, want %v", rep.HorizonSpeedup, want)
	}
}

func TestGatewaySpeedupOnMultiCore(t *testing.T) {
	const in = `BenchmarkGatewaySubmit1Server-4     100      4000000 ns/op
BenchmarkGatewaySubmit3Shards-4     300      1000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0; math.Abs(rep.GatewaySubmitSpeedup-want) > 1e-9 {
		t.Fatalf("gateway speedup = %v, want %v", rep.GatewaySubmitSpeedup, want)
	}
}

// Regression: with -count>1 the same (name, cpu) configuration repeats,
// and with -cpu 1,4 one name spans two configurations. Keying by name
// alone let a later line clobber an earlier one and paired the speedup
// from whichever lines happened to survive. The ratio must come from the
// fastest run of each matched (name, cpu) pair.
func TestPhase1SpeedupFromMatchedPair(t *testing.T) {
	const in = `goos: linux
BenchmarkSchedulePhase1               5         100000000 ns/op
BenchmarkSchedulePhase1-4            18          25000000 ns/op
BenchmarkSchedulePhase1               5         110000000 ns/op
BenchmarkSchedulePhase1-4            16          26000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want all 4 kept", len(rep.Benchmarks))
	}
	// Fastest cpu=1 run (100ms) over fastest cpu=4 run (25ms): exactly 4.
	if want := 4.0; math.Abs(rep.Phase1ParallelSpeedup-want) > 1e-9 {
		t.Fatalf("phase-1 speedup = %v, want %v", rep.Phase1ParallelSpeedup, want)
	}
}

// A parallel-only input (no cpu=1 leg) has no matched pair: emitting a
// speedup would be fabricating the sequential baseline.
func TestPhase1SpeedupNeedsBothLegs(t *testing.T) {
	const in = `BenchmarkSchedulePhase1-4            18          25000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1ParallelSpeedup != 0 {
		t.Fatalf("speedup %v derived without a sequential leg", rep.Phase1ParallelSpeedup)
	}
}

// The horizon ratio must also pair at one GOMAXPROCS: given FullResolve
// at cpus 1 and 8 but HorizonAdvance only at 8, the cpu-8 pair is the
// match — mixing the cpu-1 FullResolve in would inflate the ratio.
func TestHorizonSpeedupMatchesCPU(t *testing.T) {
	const in = `BenchmarkHorizonAdvance-8             36          31000000 ns/op
BenchmarkFullResolve                   1        9000000000 ns/op
BenchmarkFullResolve-8                 1        3100000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100.0; math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("horizon speedup = %v, want %v (the cpu-8 pair)", rep.HorizonSpeedup, want)
	}
}

// The -check mode compares only configurations both reports measured,
// judges each by the fastest run, and flags ratios beyond the limit.
func TestCompareFlagsRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSchedule", NsPerOp: 100e6},
		{Name: "BenchmarkSchedulePhase1", NsPerOp: 1e6, CPU: 4},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSchedule", NsPerOp: 350e6}, // 3.5x: regression
		{Name: "BenchmarkSchedule", NsPerOp: 150e6}, // fastest of -count runs: 1.5x, fine
		{Name: "BenchmarkOnlyHere", NsPerOp: 1},     // no baseline: ignored
	}}
	lines, err := compare(base, cur, 2)
	if err != nil {
		t.Fatalf("fastest run within limit still failed: %v\n%s", err, strings.Join(lines, "\n"))
	}
	cur.Benchmarks[1].NsPerOp = 250e6 // now even the best run is 2.5x
	if _, err := compare(base, cur, 2); err == nil {
		t.Fatal("2.5x regression passed a 2x limit")
	}
	// A smoke run that matches nothing in the baseline must fail loudly
	// rather than vacuously pass.
	if _, err := compare(base, &Report{Benchmarks: []Benchmark{{Name: "BenchmarkOnlyHere", NsPerOp: 1}}}, 2); err == nil {
		t.Fatal("disjoint benchmark sets compared as success")
	}
}

// -check holds B/op to the same ratio as ns/op, so an allocation
// regression fails the smoke even when the clock does not show it; a side
// that ran without -benchmem is not compared on bytes.
func TestCompareFlagsAllocationRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkSchedule", NsPerOp: 100e6, BytesPerOp: 10e6}}}
	cur := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkSchedule", NsPerOp: 110e6, BytesPerOp: 19e6}}}
	lines, err := compare(base, cur, 2)
	if err != nil {
		t.Fatalf("1.9x the baseline's bytes failed a 2x limit: %v", err)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "B/op") {
		t.Fatalf("want an ns/op and a B/op line, got %q", lines)
	}
	cur.Benchmarks[0].BytesPerOp = 25e6
	if _, err := compare(base, cur, 2); err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("2.5x the baseline's bytes at unchanged ns/op passed a 2x limit (err %v)", err)
	}
	cur.Benchmarks[0].BytesPerOp = 0 // run without -benchmem
	if lines, err := compare(base, cur, 2); err != nil || len(lines) != 1 {
		t.Fatalf("a run without -benchmem must be compared on ns/op alone: %v %q", err, lines)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  pkg 0.1s\n")); err == nil {
		t.Fatal("input without benchmark lines must fail")
	}
}

func TestParseLineMalformedCount(t *testing.T) {
	if _, _, err := parseLine("BenchmarkX-8  notanint  12 ns/op"); err == nil {
		t.Fatal("malformed iteration count must fail")
	}
}

// Regression: the committed report carried phase1_parallel_speedup 0.54 and
// gateway_submit_speedup_3shards 1.2 from -cpu 4 runs on a 2-core sandbox —
// two cores pass a "more than one" gate and still timeslice a GOMAXPROCS=4
// run. Each ratio needs as many cores as the larger GOMAXPROCS of its pair;
// the note names what was left out, and a pair the host can run for real
// (the gateway's at -cpu 2) is still recorded.
func TestParallelSpeedupsOmittedWhenOversubscribed(t *testing.T) {
	const in = `BenchmarkSchedulePhase1               5         100000000 ns/op
BenchmarkSchedulePhase1-4             9          54000000 ns/op
BenchmarkGatewaySubmit1Server-4     100      1200000 ns/op
BenchmarkGatewaySubmit3Shards-4     100      1000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1ParallelSpeedup != 0 || rep.GatewaySubmitSpeedup != 0 {
		t.Fatalf("-cpu 4 ratios recorded on a 2-core host: phase 1 %v, gateway %v",
			rep.Phase1ParallelSpeedup, rep.GatewaySubmitSpeedup)
	}
	for _, field := range []string{"phase1_parallel_speedup (-cpu 4)", "gateway_submit_speedup_3shards (-cpu 4)", "2 core(s)"} {
		if !strings.Contains(rep.ParallelNote, field) {
			t.Errorf("parallel_speedup_note %q does not mention %q", rep.ParallelNote, field)
		}
	}

	rep, err = parseWithCPU(strings.NewReader(strings.ReplaceAll(in, "Shards-4", "Shards-2")+
		"BenchmarkGatewaySubmit1Server-2     100      3000000 ns/op\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.0; math.Abs(rep.GatewaySubmitSpeedup-want) > 1e-9 {
		t.Fatalf("gateway speedup at -cpu 2 on a 2-core host = %v, want %v", rep.GatewaySubmitSpeedup, want)
	}
	if rep.Phase1ParallelSpeedup != 0 || strings.Contains(rep.ParallelNote, "gateway") {
		t.Fatalf("phase 1 %v, note %q: want only the -cpu 4 phase-1 ratio omitted", rep.Phase1ParallelSpeedup, rep.ParallelNote)
	}
}
