package vsp_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designName is a package-qualified name in a code span of DESIGN.md:
// `horizon.Service`, `wal.appendRecord(…)`. The package must be a directory
// under internal/; a name after a '.', '/' or identifier character is part
// of a longer path (`internal/wal/wal.go`, `.horizon.advances`) and is not one.
var designName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z]\w*)`)

// DESIGN.md describes the system that exists: every package-qualified name it
// puts in a code span is declared by that package, as a top-level name, a
// method or a field. Metric names share the spelling and are skipped: those
// with an underscore (no Go identifier under internal/ has one) and those
// BENCHMARK.json declares.
func TestDesignNamesExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchmarkMetrics(t)
	declared := make(map[string]map[string]bool) // package → names, parsed on first use
	for i, line := range strings.Split(string(design), "\n") {
		spans := strings.Split(line, "`")
		for j := 1; j < len(spans); j += 2 {
			for _, m := range designName.FindAllStringSubmatch(spans[j], -1) {
				pkg, name := m[1], m[2]
				if strings.Contains(name, "_") || metrics[pkg+"."+name] {
					continue
				}
				if _, err := os.Stat(filepath.Join("internal", pkg)); err != nil {
					continue
				}
				if declared[pkg] == nil {
					declared[pkg] = packageNames(t, filepath.Join("internal", pkg))
				}
				if !declared[pkg][name] {
					t.Errorf("DESIGN.md:%d: `%s.%s`: package %s declares no %s", i+1, pkg, name, pkg, name)
				}
			}
		}
	}
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// packageNames returns every name the Go files of dir declare at top level,
// as a method, or as a field or interface method of any struct or interface
// type, test files included.
func packageNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	add := func(ids []*ast.Ident) {
		for _, id := range ids {
			names[id.Name] = true
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add([]*ast.Ident{d.Name})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add([]*ast.Ident{s.Name})
						case *ast.ValueSpec:
							add(s.Names)
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						add(fld.Names)
					}
				case *ast.InterfaceType:
					for _, fld := range n.Methods.List {
						add(fld.Names)
					}
				}
				return true
			})
		}
	}
	return names
}
