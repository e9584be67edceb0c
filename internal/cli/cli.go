// Package cli holds the file-loading and model-wiring helpers shared by
// the command-line tools.
package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// LoadTopology reads a topology spec JSON file.
func LoadTopology(path string) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	defer f.Close()
	return topology.Decode(f)
}

// LoadCatalog reads a catalog JSON file.
func LoadCatalog(path string) (*media.Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	return media.Decode(f)
}

// LoadRequests reads a request-batch JSON file.
func LoadRequests(path string) (workload.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("requests: %w", err)
	}
	defer f.Close()
	var set workload.Set
	if err := json.NewDecoder(f).Decode(&set); err != nil {
		return nil, fmt.Errorf("requests: decode: %w", err)
	}
	return set, nil
}

// LoadRequestsAuto loads a request batch, choosing the format by file
// extension: ".csv" parses a reservation trace (validated against the
// topology and catalog), anything else parses JSON.
func LoadRequestsAuto(path string, topo *topology.Topology, cat *media.Catalog) (workload.Set, error) {
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("requests: %w", err)
		}
		defer f.Close()
		return workload.ReadCSV(f, topo, cat)
	}
	return LoadRequests(path)
}

// LoadSchedule reads a schedule JSON file.
func LoadSchedule(path string) (*schedule.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	defer f.Close()
	s := schedule.New()
	if err := json.NewDecoder(f).Decode(s); err != nil {
		return nil, fmt.Errorf("schedule: decode: %w", err)
	}
	return s, nil
}

// SaveJSON writes v as indented JSON to path ("-" or "" means stdout).
func SaveJSON(path string, v any) error {
	w := os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// BuildModel wires a uniform-rate cost model over a topology and catalog.
// Rates use the paper's quoted units: srate in $/(GB·hour), nrate in $/GB.
func BuildModel(topo *topology.Topology, cat *media.Catalog, srateGBHour, nrateGB float64) *cost.Model {
	book := pricing.Uniform(topo, pricing.PerGBHour(srateGBHour), pricing.PerGB(nrateGB))
	table := routing.NewTable(book)
	return cost.NewModel(book, table, cat)
}
