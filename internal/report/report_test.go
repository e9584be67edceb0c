package report

import (
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/experiment"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

func sampleFigure() *experiment.Figure {
	s1 := stats.Series{Name: "srate=3"}
	s1.Add(300, 100000)
	s1.Add(400, 120000)
	s2 := stats.Series{Name: "no IS, with \"quotes\""}
	s2.Add(300, 110000)
	s2.Add(400, 140000)
	return &experiment.Figure{
		ID: "figX", Title: "sample", XLabel: "nrate", YLabel: "cost",
		Series: []stats.Series{s1, s2},
	}
}

func TestWriteFigureTable(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureTable(&b, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"FIGX", "srate=3", "300", "100000", "140000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, ylabel, header, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestWriteFigureTableEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureTable(&b, &experiment.Figure{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Error("empty figure not flagged")
	}
}

func TestWriteFigureCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureCSV(&b, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != `nrate,srate=3,"no IS, with ""quotes"""` {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "300,100000.00,110000.00" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteTable5(t *testing.T) {
	res := &experiment.Table5Result{
		TotalCases:   785,
		CostAffected: 622,
		Best2or4:     614,
	}
	res.Best[sorp.Period] = 100
	res.Best[sorp.PeriodPerCost] = 395
	res.Best[sorp.Space] = 120
	res.Best[sorp.SpacePerCost] = 437
	res.DeltaPct = stats.Summarize([]float64{12, 34, 2})
	var b strings.Builder
	if err := WriteTable5(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"785", "622",
		"395 out of 622 (64%)", // 63.5% rounds to 64 at %.0f
		"437 out of 622 (70%)",
		"614 out of 622 (99%)", // 98.7% rounds to 99 at %.0f
		"Method 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table5 missing %q:\n%s", want, out)
		}
	}
}

func TestWriteResults(t *testing.T) {
	rs := []experiment.Result{{
		Params:     testutil.Params{SRateGBHour: 5, NRateGB: 300, CapacityGB: 5, Alpha: 0.271},
		Phase1Cost: 100, FinalCost: 112, DirectCost: 150,
		Overflows: 3, Victims: 4, Requests: 190,
	}}
	var b strings.Builder
	if err := WriteResults(&b, rs); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "srate_gbh,") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "5,300,5,0.271,190,100.00,112.00,150.00,3,4,12.00,25.33") {
		t.Errorf("row wrong:\n%s", out)
	}
}

func TestWriteFigureMarkdown(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureMarkdown(&b, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"### FIGX", "| nrate |", "| 300 | 100,000 | 110,000 |", "| 400 | 120,000 | 140,000 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	var e strings.Builder
	if err := WriteFigureMarkdown(&e, &experiment.Figure{ID: "e"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "no data") {
		t.Error("empty figure not flagged")
	}
}

func TestHumanMoney(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		1234567:  "1,234,567",
		-9876543: "-9,876,543",
	}
	for in, want := range cases {
		if got := humanMoney(in); got != want {
			t.Errorf("humanMoney(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteTable5CSV(t *testing.T) {
	res := &experiment.Table5Result{TotalCases: 1}
	c := experiment.CaseResult{
		Params:     testutil.Params{SRateGBHour: 3, CapacityGB: 5, NRateGB: 300, Alpha: 0.1},
		Phase1Cost: 1000,
		Overflows:  2,
		Resolved:   true,
	}
	c.FinalCost[sorp.Period] = 1100
	c.FinalCost[sorp.PeriodPerCost] = 1050
	c.FinalCost[sorp.Space] = 1150
	c.FinalCost[sorp.SpacePerCost] = 1040
	res.Cases = []experiment.CaseResult{c}
	var b strings.Builder
	if err := WriteTable5CSV(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "srate_gbh,") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "3,5,300,0.1,2,1000.00,1100.00,1050.00,1150.00,1040.00") {
		t.Errorf("row wrong:\n%s", out)
	}
}
