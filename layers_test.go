package vsp_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The repository has a core and a lab, and this file is where the line is
// drawn. The core is what cmd/vspserve and cmd/vspgateway link: the paper's
// provider, from one reservation to a priced schedule. The lab is everything
// else under internal/: the evaluation harness, the baselines the paper
// argues against, the oracle, the load harness and the rigs. The lab may
// import the core; the core never imports the lab, and its tests only the
// three lab packages named below.
//
// A new edge across the line is an edit to one of these lists with a sentence
// of why in the commit (CONTRIBUTING.md); DESIGN.md §3 maps each layer to its
// packages, metrics and row here.

const module = "github.com/vodsim/vsp"

// corePackages is `go list -deps ./cmd/vspserve ./cmd/vspgateway`, internal
// packages only, by name. gateway links the solver through server's wire
// types (ROADMAP item 9).
var corePackages = []string{
	"chaos", "cli", "cost", "gateway", "horizon", "httpkit", "ivs", "media",
	"occupancy", "parallel", "pricing", "replica", "retryhttp", "routing",
	"schedule", "scheduler", "server", "simtime", "sorp", "topology", "units",
	"wal", "workload",
}

// labPackages is the rest of internal/. testutil is the rig package. The
// oracle — analysis, audit, billing, des, faults, repair, vodsim — is here,
// so rows (a) and (b) also keep it from the horizon: what a horizon.Service
// may hold is decided by scheduler.Check and nothing else.
var labPackages = []string{
	"analysis", "audit", "bandwidth", "billing", "des", "experiment", "faults",
	"loadgen", "online", "optimal", "placement", "plot", "repair", "report",
	"stats", "testutil", "vodsim",
}

// coreTestLab is every lab package a core _test.go imports, under any build
// tag: the rigs, the oracle the commit predicate is compared against, and the
// gray-failure harness of the chaos soak.
var coreTestLab = []string{"audit", "loadgen", "testutil"}

// goFile is one scanned source file: slash path from the repository root,
// import paths, and text by line.
type goFile struct {
	path    string
	imports []string
	lines   []string
}

func (f goFile) test() bool  { return strings.HasSuffix(f.path, "_test.go") }
func (f goFile) dir() string { return path.Dir(f.path) }

// scanTree reads every .go file of the repository except bench/ (its own
// module of rules: BENCHMARK.json) and dot or build-output directories. Build
// constraints are ignored on purpose: a tag must not hide an import.
func scanTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == "bench" || p == "bin" || p == "figures") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), p, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		f := goFile{path: filepath.ToSlash(p), lines: strings.Split(string(src), "\n")}
		for _, im := range parsed.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			f.imports = append(f.imports, ip)
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// internalName returns the name of an internal package from its import path.
func internalName(importPath string) (string, bool) {
	return strings.CutPrefix(importPath, module+"/internal/")
}

// packageDir maps an import path of this module to its directory.
func packageDir(importPath string) (string, bool) {
	if importPath == module {
		return ".", true
	}
	return strings.CutPrefix(importPath, module+"/")
}

// deps returns the internal packages the non-test files of the given
// directories reach, transitively, by name and sorted — what `go list -deps`
// prints for them, restricted to internal/.
func deps(files []goFile, dirs ...string) []string {
	byDir := make(map[string][]goFile)
	for _, f := range files {
		if !f.test() {
			byDir[f.dir()] = append(byDir[f.dir()], f)
		}
	}
	seen := make(map[string]bool)
	var visit func(dir string)
	visit = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		for _, f := range byDir[dir] {
			for _, ip := range f.imports {
				if d, ok := packageDir(ip); ok {
					visit(d)
				}
			}
		}
	}
	for _, d := range dirs {
		visit(d)
	}
	var names []string
	for d := range seen {
		if name, ok := strings.CutPrefix(d, "internal/"); ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// TestLayers pins the boundary — rows (a) core, (b) lab, (c) core tests — and
// the standing rules, row (d).
func TestLayers(t *testing.T) {
	// Liveness first: a helper or a regexp that has rotted fails here,
	// loudly, instead of passing vacuously over the tree.
	if name, ok := internalName(module + "/internal/experiment"); !ok || name != "experiment" {
		t.Fatalf("internalName does not recognise an internal import: %q, %v", name, ok)
	}
	if _, ok := internalName("net/http"); ok {
		t.Fatal("internalName takes net/http for an internal import")
	}
	if dir, ok := packageDir(module + "/cmd/vspserve"); !ok || dir != "cmd/vspserve" {
		t.Fatalf("packageDir does not map a command: %q, %v", dir, ok)
	}
	for _, r := range depRules {
		if !r.forbidden.MatchString(r.hit) || r.forbidden.MatchString(r.miss) {
			t.Fatalf("%s: %v must match %q and not %q", r.name, r.forbidden, r.hit, r.miss)
		}
	}
	for _, r := range grepRules {
		if !r.pattern.MatchString(r.hit) || r.pattern.MatchString(r.miss) {
			t.Fatalf("%s: %v must match %q and not %q", r.name, r.pattern, r.hit, r.miss)
		}
	}

	files := scanTree(t)
	core, lab := sorted(corePackages), sorted(labPackages)

	t.Run("every internal package is on one side", func(t *testing.T) {
		entries, err := os.ReadDir("internal")
		if err != nil {
			t.Fatal(err)
		}
		var have []string
		for _, e := range entries {
			if e.IsDir() {
				have = append(have, e.Name())
			}
		}
		if want := sorted(append(slices.Clone(core), lab...)); !slices.Equal(have, want) {
			t.Errorf("internal/ holds %v\ncorePackages + labPackages say %v\na new package is core or lab: add it to one list", have, want)
		}
	})

	t.Run("a: core is what the serving binaries link", func(t *testing.T) {
		if got := deps(files, "cmd/vspserve", "cmd/vspgateway"); !slices.Equal(got, core) {
			t.Errorf("cmd/vspserve and cmd/vspgateway link %v\ncorePackages says %v\na new edge into the serving path is a reviewed one-line edit to corePackages, never an accident", got, core)
		}
	})

	coreDir := map[string]bool{"cmd/vspserve": true, "cmd/vspgateway": true}
	for _, name := range core {
		coreDir["internal/"+name] = true
	}

	// labImports returns the lab packages the core's test or non-test files
	// import, each with one file that does.
	labImports := func(test bool) map[string]string {
		used := make(map[string]string)
		for _, f := range files {
			if f.test() != test || !coreDir[f.dir()] {
				continue
			}
			for _, ip := range f.imports {
				if name, ok := internalName(ip); ok && slices.Contains(lab, name) {
					used[name] = f.path
				}
			}
		}
		return used
	}

	t.Run("b: the core does not import the lab", func(t *testing.T) {
		for name, file := range labImports(false) {
			t.Errorf("%s imports internal/%s: the lab (experiments, baselines, oracle, harness, rigs) builds on the core, never the other way", file, name)
		}
	})

	t.Run("c: core tests build rigs without compiling the lab", func(t *testing.T) {
		used := labImports(true)
		var got []string
		for name, file := range used {
			got = append(got, name)
			if !slices.Contains(coreTestLab, name) {
				t.Errorf("%s imports internal/%s: a core package's tests take rigs from testutil, the oracle from audit and the load harness from loadgen, and nothing else of the lab", file, name)
			}
		}
		if got = sorted(got); !slices.Equal(got, sorted(coreTestLab)) {
			t.Errorf("core tests import lab packages %v, coreTestLab says %v: keep the list exact", got, coreTestLab)
		}
	})

	standingRules(t, files)
}

// A depRule forbids import paths to a set of packages: directly (imports of
// the non-test files in from) or transitively (everything they reach).
type depRule struct {
	name       string
	from       []string // package directories
	transitive bool
	forbidden  *regexp.Regexp // on "internal/<name>"
	hit, miss  string         // liveness: forbidden matches hit and not miss
	why        string
}

// A grepRule bounds the non-test lines matching a pattern, the way the
// Makefile's check-* targets did: files under in, minus files under except,
// hold exactly want matching lines; where there is an except, the pattern
// must also be found inside it, so the rule proves it still sees its owner.
type grepRule struct {
	name      string
	pattern   *regexp.Regexp
	in        *regexp.Regexp // on the file's slash path
	except    *regexp.Regexp // nil: no exemption
	want      int
	hit, miss string // liveness: pattern matches hit and not miss
	why       string
}

var (
	// servingShell: where a second serving shell could grow back.
	servingShell = regexp.MustCompile(`^(internal|cmd/vspserve|cmd/vspgateway)/`)
	// wholeProgram: the root package, the commands, the examples, internal/.
	wholeProgram = regexp.MustCompile(`^([^/]+\.go$|(cmd|examples|internal)/)`)
)

var depRules = []depRule{
	{
		name:      "solver: the horizon drives scheduler.Solve only",
		from:      []string{"internal/horizon"},
		forbidden: regexp.MustCompile(`^internal/(ivs|sorp|occupancy|parallel)$`),
		hit:       "internal/sorp", miss: "internal/scheduler",
		why: "internal/horizon imports a solver phase: the two-phase pipeline (phase-1 fan-out, integrate, SORP) lives once, in internal/scheduler, and an epoch close is a call to it",
	},
	{
		name:       "façade: the library does not link the tier",
		from:       []string{"."},
		transitive: true,
		forbidden:  regexp.MustCompile(`^internal/(gateway|server|replica|retryhttp|httpkit|loadgen|experiment|stats)$`),
		hit:        "internal/gateway", miss: "internal/horizon",
		why: "the root package reaches the serving tier or a harness: the façade is the library — flows that complete in one process — and the tier is its binaries, which import internal/server and internal/gateway themselves",
	},
}

var grepRules = []grepRule{
	{
		name:    "shell: one JSON reply helper",
		pattern: regexp.MustCompile(`func (\([^)]*\) )?[wW]riteJSON\(`),
		in:      servingShell, want: 1,
		hit: "func (s *Server) writeJSON(w http.ResponseWriter, v any) {", miss: "httpkit.WriteJSON(w, http.StatusOK, v)",
		why: "the JSON reply helper lives once, in internal/httpkit; a per-tier copy is a second serving shell",
	},
	{
		name:    "shell: one JSON body decoder",
		pattern: regexp.MustCompile(`func (\([^)]*\) )?[dD]ecodeBody\(`),
		in:      servingShell, want: 1,
		hit: "func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {", miss: "if !httpkit.DecodeBody(w, r, &req) {",
		why: "the JSON body decoder (one value, capped) lives once, in internal/httpkit",
	},
	{
		name:    "shell: one signal/drain loop",
		pattern: regexp.MustCompile(`signal\.NotifyContext\(`),
		in:      servingShell, want: 1,
		hit: "ctx, stop := signal.NotifyContext(ctx, os.Interrupt)", miss: "signal.Notify(ch, os.Interrupt)",
		why: "the signal/drain loop lives once, in httpkit.Serve, and both binaries run it",
	},
	{
		name:    "shell: no http.TimeoutHandler",
		pattern: regexp.MustCompile(`http\.TimeoutHandler\(`),
		in:      servingShell, want: 0,
		hit: "h = http.TimeoutHandler(h, d, msg)", miss: "h = httpkit.Deadline(h, d)",
		why: "http.TimeoutHandler costs a goroutine, a buffered body and a copied header map per request, and its 503 disowns work still running; the request deadline is httpkit.Deadline — context.WithTimeout, inline, on the connection's goroutine",
	},
	{
		name:    "shell: no hand-rolled context",
		pattern: regexp.MustCompile(`func \([^)]*\) Done\(\) <-chan struct\{\}`),
		in:      servingShell, want: 0,
		hit: "func (c *deadlineCtx) Done() <-chan struct{} {", miss: "case <-ctx.Done():",
		why: "a Done() <-chan struct{} method is a hand-rolled context.Context: the one there was existed to make a deadline cheap on routes that had no use for one",
	},
	{
		name:    "shell: two flush policies",
		pattern: regexp.MustCompile(`FsyncInterval|SyncEvery`),
		in:      servingShell, want: 0,
		hit: "case FsyncInterval:", miss: "case FsyncNever:",
		why: "the journal's third flush policy weakened the ack to amortise the fsync; group commit (ROADMAP item 4) is what may",
	},
	{
		name:    "solver: one pipeline",
		pattern: regexp.MustCompile(`ivs\.ScheduleFile\(|sorp\.Resolve`),
		in:      wholeProgram,
		except:  regexp.MustCompile(`^internal/(scheduler|sorp|optimal|experiment)/`),
		want:    0,
		hit:     "fs, err := ivs.ScheduleFile(m, vid, reqs, ivs.Options{})", miss: "out, err := scheduler.Solve(ctx, m, reqs, cfg)",
		why: "a phase is called outside internal/scheduler: scheduler.Solve owns the pipeline, and only the solver's own packages and the experiments call a phase directly",
	},
	{
		name:    "bar: audit.Run is an oracle, not a gate",
		pattern: regexp.MustCompile(`audit\.Run\(`),
		in:      wholeProgram,
		except:  regexp.MustCompile(`^(system\.go$|cmd/vspsim/)`),
		want:    0,
		hit:     "rep := audit.Run(model, sched, reqs)", miss: "err := scheduler.Check(m, sched, reqs)",
		why: "audit.Run is called outside the façade and vspsim: a second, higher bar must not grow back into the serving path",
	},
	{
		name:    "plan: the gateway merges shard plans as bytes",
		pattern: regexp.MustCompile(`\bschedule\.(Schedule|FileSchedule|New)\b|json\.(Unmarshal|NewDecoder)\(|[mM]ergeSchedules\(`),
		in:      regexp.MustCompile(`^internal/gateway/`),
		want:    1,
		hit:     "if err := json.Unmarshal(next.raw, &next.sched); err != nil {", miss: "next, err := schedule.NewEncoding(bytes.Clone(raw))",
		why: "the gateway decodes a schedule or merges decoded ones: shard plans are split without encoding/json and merged as bytes by schedule.AppendMerged, and decode–merge–encode is the tests' oracle; the one line allowed is PlanResponse's Schedule field, the wire type clients decode",
	},
}

// standingRules is row (d): what `make check-shell`, `check-solver` and
// `check-bar` enforced, now under the command that gates every change. bench/
// is read by none of them.
func standingRules(t *testing.T, files []goFile) {
	for _, r := range depRules {
		t.Run("d: "+r.name, func(t *testing.T) {
			var reached []string
			if r.transitive {
				for _, name := range deps(files, r.from...) {
					reached = append(reached, "internal/"+name)
				}
			} else {
				for _, f := range files {
					if f.test() || !slices.Contains(r.from, f.dir()) {
						continue
					}
					for _, ip := range f.imports {
						if dir, ok := packageDir(ip); ok {
							reached = append(reached, dir)
						}
					}
				}
			}
			if len(reached) == 0 {
				t.Fatalf("%v reach no package of this module: the rule reads nothing", r.from)
			}
			for _, dir := range reached {
				if r.forbidden.MatchString(dir) && !slices.Contains(r.from, dir) {
					t.Errorf("%v → %s: %s", r.from, dir, r.why)
				}
			}
		})
	}

	for _, r := range grepRules {
		t.Run("d: "+r.name, func(t *testing.T) {
			var hits []string
			scanned, owned := 0, 0
			for _, f := range files {
				if f.test() || !r.in.MatchString(f.path) {
					continue
				}
				scanned++
				exempt := r.except != nil && r.except.MatchString(f.path)
				for i, line := range f.lines {
					if !r.pattern.MatchString(line) {
						continue
					}
					if exempt {
						owned++
					} else {
						hits = append(hits, f.path+":"+strconv.Itoa(i+1)+": "+strings.TrimSpace(line))
					}
				}
			}
			if scanned == 0 {
				t.Fatalf("%v selects no file: the rule reads nothing", r.in)
			}
			if r.except != nil && owned == 0 {
				t.Errorf("%v is found nowhere under %v: the rule no longer sees the code it exempts", r.pattern, r.except)
			}
			if len(hits) != r.want {
				t.Errorf("%d non-test line(s) match %v, want %d: %s\n%s", len(hits), r.pattern, r.want, r.why, strings.Join(hits, "\n"))
			}
		})
	}
}
