package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig7CSV(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig7", "csv", 1, "small", 3, 1, "."); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + one row per srate sweep point.
	if len(lines) != 10 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "with intermediate storage") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRunFig9Table(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig9", "table", 1, "small", 3, 1, "."); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "FIG9") {
		t.Errorf("missing title:\n%s", sb.String())
	}
}

func TestRunTable5Small(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "table5", "table", 1, "small", 3, 1, "."); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"TABLE 5", "Method 2 or Method 4", "Cost increase"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig99", "table", 1, "small", 1, 1, "."); err == nil {
		t.Error("expected unknown-experiment error")
	}
	if err := run(&sb, "fig5", "table", 1, "galactic", 1, 1, "."); err == nil {
		t.Error("expected unknown-scale error")
	}
}

func TestRunSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(&sb, "fig7", "svg", 1, "small", 3, 1, dir); err != nil {
		t.Fatalf("run: %v", err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "fig7.svg"))
	if err != nil {
		t.Fatalf("svg not written: %v", err)
	}
	if !strings.Contains(string(blob), "<svg") || !strings.Contains(string(blob), "polyline") {
		t.Error("svg content unexpected")
	}
	if err := run(&sb, "fig7", "bogus", 1, "small", 3, 1, dir); err == nil {
		t.Error("expected unknown-format error")
	}
}

func TestRunGridCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "grid", "csv", 1, "small", 3, 1, "."); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header + 6*4*8*4 = 768 rows.
	if len(lines) != 769 {
		t.Fatalf("grid rows = %d, want 769", len(lines))
	}
	if !strings.HasPrefix(lines[0], "srate_gbh,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRunMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig7", "markdown", 1, "small", 3, 1, "."); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "### FIG7") || !strings.Contains(sb.String(), "|---|") {
		t.Errorf("markdown output unexpected:\n%s", sb.String())
	}
}
