package experiment

import (
	"fmt"

	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
)

// Figure is a regenerated paper figure: named series over a swept x axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
}

// Default sweep values from Table 4.
var (
	NRateSweep    = []float64{300, 400, 500, 600, 700, 800, 900, 1000}
	SRateSweep    = []float64{3, 4, 5, 6, 7, 8}
	SRateWide     = []float64{0, 25, 50, 75, 100, 150, 200, 250, 300}
	CapacitySweep = []float64{5, 8, 11, 14}
	AlphaSweep    = []float64{0.1, 0.271, 0.5, 0.7}
	AlphaWide     = []float64{0.1, 0.2, 0.271, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
)

// Fig5 regenerates Figure 5: total service cost vs network charging rate,
// one curve per storage charging rate, plus the system without
// intermediate storage. (α = 0.271, storage size 5 GB.)
func Fig5(base testutil.Params, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	fig := &Figure{
		ID:     "fig5",
		Title:  "Effect of network charging rate under different storage charging rates",
		XLabel: "network charging rate ($/GB)",
		YLabel: "total service cost ($)",
	}
	srates := []float64{3, 5, 7}
	var ps []testutil.Params
	for _, sr := range srates {
		for _, nr := range NRateSweep {
			p := base
			p.SRateGBHour, p.NRateGB = sr, nr
			ps = append(ps, p)
		}
	}
	results, err := RunAveraged(ps, repeats)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, sr := range srates {
		s := stats.Series{Name: fmt.Sprintf("srate=%g", sr)}
		for _, nr := range NRateSweep {
			s.Add(nr, float64(results[k].FinalCost))
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	// Network-only baseline (independent of srate; reuse the srate=3 row).
	noIS := stats.Series{Name: "without intermediate storage"}
	for i, nr := range NRateSweep {
		noIS.Add(nr, float64(results[i].DirectCost))
	}
	fig.Series = append(fig.Series, noIS)
	return fig, nil
}

// Fig6 regenerates Figure 6: total service cost vs network charging rate
// under different access patterns (Zipf α), fixed storage rate and size.
func Fig6(base testutil.Params, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	fig := &Figure{
		ID:     "fig6",
		Title:  "Effect of network charging rate under different access patterns",
		XLabel: "network charging rate ($/GB)",
		YLabel: "total service cost ($)",
	}
	var ps []testutil.Params
	for _, a := range AlphaSweep {
		for _, nr := range NRateSweep {
			p := base
			p.Alpha, p.NRateGB = a, nr
			ps = append(ps, p)
		}
	}
	results, err := RunAveraged(ps, repeats)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, a := range AlphaSweep {
		s := stats.Series{Name: fmt.Sprintf("alpha=%g", a)}
		for _, nr := range NRateSweep {
			s.Add(nr, float64(results[k].FinalCost))
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig7 regenerates Figure 7: total service cost vs storage charging rate,
// against the network-only system (α = 0.271, 5 GB storages, nrate 300).
func Fig7(base testutil.Params, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	base.NRateGB = 300
	fig := &Figure{
		ID:     "fig7",
		Title:  "Storage charging rate vs total service cost",
		XLabel: "storage charging rate ($/GB·h)",
		YLabel: "total service cost ($)",
	}
	var ps []testutil.Params
	for _, sr := range SRateWide {
		p := base
		p.SRateGBHour = sr
		if sr == 0 {
			p.SRateGBHour = 1e-9 // avoid the zero-means-default rule; effectively free storage
		}
		ps = append(ps, p)
	}
	results, err := RunAveraged(ps, repeats)
	if err != nil {
		return nil, err
	}
	with := stats.Series{Name: "with intermediate storage"}
	netOnly := stats.Series{Name: "network only system"}
	for i, sr := range SRateWide {
		with.Add(sr, float64(results[i].FinalCost))
		netOnly.Add(sr, float64(results[i].DirectCost))
	}
	fig.Series = append(fig.Series, with, netOnly)
	return fig, nil
}

// Fig8 regenerates Figure 8: total service cost vs storage charging rate
// under different network charging rates.
func Fig8(base testutil.Params, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	fig := &Figure{
		ID:     "fig8",
		Title:  "Storage charging rate vs total service cost under different network charging rates",
		XLabel: "storage charging rate ($/GB·h)",
		YLabel: "total service cost ($)",
	}
	nrates := []float64{300, 500, 700, 900}
	var ps []testutil.Params
	for _, nr := range nrates {
		for _, sr := range SRateWide {
			p := base
			p.NRateGB = nr
			p.SRateGBHour = sr
			if sr == 0 {
				p.SRateGBHour = 1e-9
			}
			ps = append(ps, p)
		}
	}
	results, err := RunAveraged(ps, repeats)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, nr := range nrates {
		s := stats.Series{Name: fmt.Sprintf("nrate=%g", nr)}
		for _, sr := range SRateWide {
			s.Add(sr, float64(results[k].FinalCost))
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig9 regenerates Figure 9: total service cost vs access pattern skew for
// several intermediate storage sizes.
func Fig9(base testutil.Params, repeats int) (*Figure, error) {
	base = base.WithDefaults()
	base.NRateGB = 300
	fig := &Figure{
		ID:     "fig9",
		Title:  "User access pattern vs intermediate storage size",
		XLabel: "alpha value of zipf distribution",
		YLabel: "total service cost ($)",
	}
	caps := []float64{5, 8, 11}
	var ps []testutil.Params
	for _, c := range caps {
		for _, a := range AlphaWide {
			p := base
			p.CapacityGB, p.Alpha = c, a
			ps = append(ps, p)
		}
	}
	results, err := RunAveraged(ps, repeats)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, c := range caps {
		s := stats.Series{Name: fmt.Sprintf("storage=%gGB", c)}
		for _, a := range AlphaWide {
			s.Add(a, float64(results[k].FinalCost))
			k++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
