// Command wfasic-vet runs the repo's project-specific static analyzers over
// the module: panicpolicy (assert via internal/invariant, not raw panic),
// magicoffset (named register/beat constants, not literals), errpath
// (exported error-returning functions must not swallow callee errors),
// tickphase (Tick/Step methods follow the two-phase next-state discipline),
// regmap (register constants, annotations, switch arms and the soc driver
// agree), the interprocedural analyzers built on the package-set call graph —
// determinism (everything reachable from the cycle-stepped packages and from
// Tick/Step/Run must be reproducible), isolation (nothing reachable from the
// simulator API touches package-level mutable state), perfmono (counter
// writes are monotone outside reset paths), hotalloc (no allocation
// constructs reachable from the steady-state roots outside annotated cold
// paths) — and suppress (//vet:allow comments must still mask a finding).
//
// Usage:
//
//	go run ./cmd/wfasic-vet ./...
//	go run ./cmd/wfasic-vet -only determinism,errpath ./internal/...
//	go run ./cmd/wfasic-vet -analyzer isolation ./...
//	go run ./cmd/wfasic-vet -json ./...
//	go run ./cmd/wfasic-vet -baseline vet-baseline.json ./...
//	go run ./cmd/wfasic-vet -write-baseline vet-baseline.json ./...
//	go run ./cmd/wfasic-vet -dump-callgraph callgraph.json
//	go run ./cmd/wfasic-vet -dump-allocs allocs.json
//	go run ./cmd/wfasic-vet -fixtures internal/lint/testdata/src -json
//	go run ./cmd/wfasic-vet -list
//
// With -baseline, only regressions (findings absent from the baseline) and
// stale baseline entries fail the run: the findings ratchet can shrink but
// never grow. -json emits the machine-readable report on stdout; CI archives
// it as an artifact. -write-baseline snapshots the current findings as a
// baseline skeleton whose justifications must then be filled in by hand.
// -analyzer runs a single analyzer (listing the valid names on bad input);
// -dump-callgraph writes the interprocedural call graph as deterministic
// JSON (byte-stable across runs, diffed in CI); -dump-allocs does the same
// for the hotalloc classifier's allocation sites and hot-set verdicts
// (schema wfasic-allocs-v1); -fixtures runs the suite
// over each analyzer fixture directory and reports the findings, so CI
// catches fixture drift outside the go test process.
//
// It is built purely on the standard library so it needs no module downloads;
// scripts/check.sh and CI run it on every change. A finding can be
// suppressed with a `//vet:allow <analyzer> [reason]` comment on the same
// line or the line above. Exits 1 when the run is not clean, 2 on usage or
// I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	single := flag.String("analyzer", "", "run exactly one analyzer by name")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report as JSON on stdout")
	baselinePath := flag.String("baseline", "", "fail only on regressions against this baseline file")
	writeBaseline := flag.String("write-baseline", "", "snapshot current findings to this baseline file and exit")
	dumpCallgraph := flag.String("dump-callgraph", "", "write the interprocedural call graph to this file as deterministic JSON and exit")
	dumpAllocs := flag.String("dump-allocs", "", "write the classified allocation sites and hot-set verdicts to this file as deterministic JSON and exit")
	fixtures := flag.String("fixtures", "", "run the suite over each fixture directory under this path and report findings")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *single != "" {
		if *only != "" {
			fatalf("-analyzer and -only are mutually exclusive")
		}
		*only = *single
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				var names []string
				for _, known := range analyzers {
					names = append(names, known.Name)
				}
				fatalf("unknown analyzer %q; available: %s", strings.TrimSpace(name), strings.Join(names, ", "))
			}
			picked = append(picked, a)
		}
		analyzers = picked
		if *single != "" && len(picked) != 1 {
			fatalf("-analyzer takes exactly one name")
		}
	}

	if *fixtures != "" {
		os.Exit(runFixtures(*fixtures, analyzers, *jsonOut))
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatalf("%v", err)
	}

	if *dumpCallgraph != "" {
		data, err := lint.BuildCallGraph(pkgs).DumpJSON(root)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*dumpCallgraph, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wfasic-vet: wrote call graph (%d bytes) to %s\n", len(data), *dumpCallgraph)
		return
	}

	if *dumpAllocs != "" {
		data, err := lint.DumpAllocsJSON(lint.BuildCallGraph(pkgs), root)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*dumpAllocs, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wfasic-vet: wrote allocation sites (%d bytes) to %s\n", len(data), *dumpAllocs)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// The whole module is analyzed (module-level analyzers need every
	// package); patterns restrict which findings are reported.
	matchedDirs := map[string]bool{}
	for _, p := range pkgs {
		if matchAny(patterns, cwd, p.Dir) {
			matchedDirs[p.Dir] = true
		}
	}
	var ds []lint.Diagnostic
	for _, d := range lint.CheckModule(pkgs, analyzers) {
		if matchedDirs[filepath.Dir(d.Pos.Filename)] {
			ds = append(ds, d)
		}
	}
	findings := lint.ToJSONFindings(ds, root)

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, findings,
			"wfasic-vet findings ratchet: entries may only be removed; every entry needs a justification"); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wfasic-vet: wrote %d finding(s) to %s (fill in the justifications)\n",
			len(findings), *writeBaseline)
		return
	}

	var baseline *lint.Baseline
	if *baselinePath != "" {
		baseline, err = lint.LoadBaseline(*baselinePath)
		if err != nil {
			fatalf("%v", err)
		}
		var names []string
		for _, a := range lint.All() {
			names = append(names, a.Name)
		}
		if err := baseline.Validate(names); err != nil {
			fatalf("%v", err)
		}
	}
	report := lint.BuildReport(findings, baseline)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, f := range report.Findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
		for _, e := range report.Stale {
			fmt.Printf("%s: [%s] stale baseline entry (finding no longer occurs): %s\n", e.File, e.Analyzer, e.Message)
		}
	}
	if !report.Clean() {
		fmt.Fprintf(os.Stderr, "wfasic-vet: %d regression(s), %d stale baseline entr(ies)\n",
			len(report.Regressions), len(report.Stale))
		os.Exit(1)
	}
	if n := len(report.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "wfasic-vet: %d finding(s), all baselined\n", n)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfasic-vet: "+format+"\n", args...)
	os.Exit(2)
}

// fixtureReport is the -fixtures output: findings per fixture directory.
type fixtureReport struct {
	Fixture  string             `json:"fixture"`
	Findings []lint.JSONFinding `json:"findings"`
}

// runFixtures runs the analyzers over every fixture directory under dir
// (multi-package trees — a nested go package layout like regmapdrv — load
// via LoadTree, flat directories via LoadDir) and reports the findings.
// The exit code is 2 when any fixture fails to load, otherwise 0: fixture
// findings are intentional, and drift is caught by diffing the report.
func runFixtures(dir string, analyzers []*lint.Analyzer, jsonOut bool) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfasic-vet: %v\n", err)
		return 2
	}
	var reports []fixtureReport
	status := 0
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		var pkgs []*lint.Package
		if hasSubPackages(sub) {
			pkgs, err = lint.LoadTree(sub, e.Name())
		} else {
			var p *lint.Package
			p, err = lint.LoadDir(sub)
			if p != nil {
				pkgs = []*lint.Package{p}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfasic-vet: fixture %s: %v\n", e.Name(), err)
			status = 2
			continue
		}
		ds := lint.CheckModule(pkgs, analyzers)
		reports = append(reports, fixtureReport{
			Fixture:  e.Name(),
			Findings: append([]lint.JSONFinding{}, lint.ToJSONFindings(ds, dir)...),
		})
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "wfasic-vet: %v\n", err)
			return 2
		}
	} else {
		for _, r := range reports {
			fmt.Printf("%s: %d finding(s)\n", r.Fixture, len(r.Findings))
			for _, f := range r.Findings {
				fmt.Printf("  %s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
			}
		}
	}
	return status
}

// hasSubPackages reports whether a fixture directory is a package tree
// (Go files only in subdirectories) rather than a flat single package.
func hasSubPackages(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	hasGo, hasDir := false, false
	for _, e := range entries {
		if e.IsDir() {
			hasDir = true
		} else if strings.HasSuffix(e.Name(), ".go") {
			hasGo = true
		}
	}
	return hasDir && !hasGo
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// matchAny implements the useful subset of go-style package patterns:
// "./..." (everything under cwd), "./dir/..." (a subtree) and "./dir"
// (one directory), all resolved relative to the working directory.
func matchAny(patterns []string, cwd, dir string) bool {
	rel, err := filepath.Rel(cwd, dir)
	if err != nil {
		return true
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		if pat == "..." {
			if rel == "." || !strings.HasPrefix(rel, "..") {
				return true
			}
			continue
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat {
			return true
		}
	}
	return false
}
