// Command vspexp regenerates the paper's evaluation: Figures 5–9 and
// Table 5, plus the §5.5 overflow-resolution cost statistics.
//
// Usage:
//
//	vspexp -exp fig5                  # one figure as an aligned table
//	vspexp -exp all -format csv       # everything, CSV to stdout
//	vspexp -exp table5 -scale small   # quick smoke run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/vodsim/vsp/internal/experiment"
	"github.com/vodsim/vsp/internal/plot"
	"github.com/vodsim/vsp/internal/report"
	"github.com/vodsim/vsp/internal/testutil"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig5 | fig6 | fig7 | fig8 | fig9 | fig-online | fig-replication | fig-locality | table5 | grid | all")
		format   = flag.String("format", "table", "output format for figures: table | csv | svg | markdown")
		repeats  = flag.Int("repeats", 3, "workload draws averaged per figure point")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		scale    = flag.String("scale", "paper", "system scale: paper (19 IS, 500 titles) | small (9 IS, 60 titles)")
		seed     = flag.Int64("seed", 1997, "master seed")
		rpu      = flag.Int("rpu", 1, "reservations per user (workload density)")
		outDir   = flag.String("out", ".", "directory for -format svg output files")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *format, *repeats, *parallel, *scale, *seed, *rpu, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "vspexp:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp, format string, repeats, parallel int, scale string, seed int64, rpu int, outDir string) error {
	var base testutil.Params
	switch scale {
	case "paper":
		base = testutil.Params{Seed: seed}
	case "small":
		base = testutil.Params{Storages: 9, UsersPerStorage: 6, Titles: 60, Seed: seed}
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	if rpu > 1 {
		base.RequestsPerUser = rpu
	}

	figures := map[string]func(testutil.Params, int, int) (*experiment.Figure, error){
		"fig5":         experiment.Fig5,
		"fig6":         experiment.Fig6,
		"fig7":         experiment.Fig7,
		"fig8":         experiment.Fig8,
		"fig9":         experiment.Fig9,
		"fig-online":   experiment.FigOnline,
		"fig-locality": experiment.FigLocality,
		"fig-replication": func(b testutil.Params, r, p int) (*experiment.Figure, error) {
			return experiment.FigReplication(b, 0.25, r, p)
		},
	}
	order := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig-online", "fig-replication", "fig-locality"}

	emitFigure := func(name string) error {
		start := time.Now()
		fig, err := figures[name](base, repeats, parallel)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d series in %v\n", name, len(fig.Series), time.Since(start).Round(time.Millisecond))
		switch format {
		case "csv":
			return report.WriteFigureCSV(w, fig)
		case "markdown":
			if err := report.WriteFigureMarkdown(w, fig); err != nil {
				return err
			}
			_, err = fmt.Fprintln(w)
			return err
		case "svg":
			path := filepath.Join(outDir, fig.ID+".svg")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := plot.WriteSVG(f, fig, plot.Options{}); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "wrote %s\n", path)
			return err
		case "table":
			if err := report.WriteFigureTable(w, fig); err != nil {
				return err
			}
			_, err = fmt.Fprintln(w)
			return err
		default:
			return fmt.Errorf("unknown format %q", format)
		}
	}

	emitTable5 := func() error {
		start := time.Now()
		res, err := experiment.RunTable5(experiment.Table5Config{Base: base, Parallelism: parallel})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "table5: %d cases in %v\n", res.TotalCases, time.Since(start).Round(time.Millisecond))
		if format == "csv" {
			return report.WriteTable5CSV(w, res)
		}
		return report.WriteTable5(w, res)
	}

	emitGrid := func() error {
		start := time.Now()
		var ps []testutil.Params
		for _, sr := range experiment.SRateSweep {
			for _, cap := range experiment.CapacitySweep {
				for _, nr := range experiment.NRateSweep {
					for _, a := range experiment.AlphaSweep {
						p := base
						p.SRateGBHour, p.CapacityGB, p.NRateGB, p.Alpha = sr, cap, nr, a
						ps = append(ps, p)
					}
				}
			}
		}
		results, err := experiment.RunMany(ps, parallel)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grid: %d configurations in %v\n", len(results), time.Since(start).Round(time.Millisecond))
		return report.WriteResults(w, results)
	}

	switch exp {
	case "all":
		for _, name := range order {
			if err := emitFigure(name); err != nil {
				return err
			}
		}
		return emitTable5()
	case "table5":
		return emitTable5()
	case "grid":
		return emitGrid()
	default:
		if _, ok := figures[exp]; !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		return emitFigure(exp)
	}
}
