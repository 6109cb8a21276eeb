package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestIsolationFindings pins the isolation fixture: the global write in
// record and the mutable-global read in lookup are flagged with witness
// chains from Tick; reads of the immutable Limits table and the unreachable
// Seed write stay quiet.
func TestIsolationFindings(t *testing.T) {
	ds := dirDiags(t, "isolation")["isolation"]
	if len(ds) != 2 {
		t.Fatalf("got %d isolation findings, want 2: %q", len(ds), messages(ds))
	}
	wantContains(t, ds, "write to package-level")
	wantContains(t, ds, ".hits")
	wantContains(t, ds, "read of mutable package-level")
	wantContains(t, ds, ".table")
	wantNotContains(t, ds, "Limits")
	for _, d := range ds {
		if !strings.Contains(d.Message, "Tick -> ") {
			t.Errorf("finding lacks a witness chain from Tick: %s", d.Message)
		}
	}
}

// TestIsolationServingRoots loads the serveiso fixture through LoadTree so
// its package path ends in internal/serve, and asserts the serving-path root
// rule reaches the global write below Submit — the fixture's Server is
// deliberately not named Machine, so no other root rule can find it — while
// the sentinel-error read stays legal.
func TestIsolationServingRoots(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "src", "serveiso"), "serveiso")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	var ds []Diagnostic
	for _, d := range CheckModule(pkgs, All()) {
		if d.Analyzer == "isolation" {
			ds = append(ds, d)
		}
	}
	if len(ds) != 1 {
		t.Fatalf("got %d isolation findings, want 1: %q", len(ds), messages(ds))
	}
	wantContains(t, ds, ".served")
	wantContains(t, ds, "Submit -> ")
	wantNotContains(t, ds, "ErrShed")
}

// TestDeterminismTransitiveFindings pins the deepdet fixture: the five
// helper offenses (wall clock, goroutine, global rand, rand constructor,
// mutating map range) sit outside any cycle-stepped package and outside any
// Step/Tick body, yet each flags exactly once with a chain back to Tick; the
// unreached clock read stays quiet.
func TestDeterminismTransitiveFindings(t *testing.T) {
	ds := dirDiags(t, "deepdet")["determinism"]
	if len(ds) != 5 {
		t.Fatalf("got %d determinism findings, want 5: %q", len(ds), messages(ds))
	}
	wantContains(t, ds, "time.Now")
	wantContains(t, ds, "goroutine launched")
	wantContains(t, ds, "rand.Intn")
	wantContains(t, ds, "rand.NewSource")
	wantContains(t, ds, "map iteration")
	wantNotContains(t, ds, "unreached")
	for _, d := range ds {
		if !strings.Contains(d.Message, "Tick -> ") {
			t.Errorf("finding lacks a witness chain from Tick: %s", d.Message)
		}
	}
}

// TestPerfMonoFindings pins the perfmono fixture: the four violation shapes
// in slip are flagged; monotone updates in Tick, the unregistered level
// field, Reset (by name) and scrub (//vet:resetpath) stay quiet.
func TestPerfMonoFindings(t *testing.T) {
	ds := dirDiags(t, "perfmono")["perfmono"]
	if len(ds) != 4 {
		t.Fatalf("got %d perfmono findings, want 4: %q", len(ds), messages(ds))
	}
	wantContains(t, ds, "decremented with --")
	wantContains(t, ds, "overwritten with =")
	wantContains(t, ds, "negative operand")
	wantContains(t, ds, "decremented with -=")
	wantNotContains(t, ds, "level")
	for _, d := range ds {
		if !strings.Contains(d.Message, "Tick -> ") {
			t.Errorf("finding lacks a witness chain from Tick: %s", d.Message)
		}
	}
}

// TestRegMapDriverCoverage loads the two-package regmapdrv fixture through
// LoadTree (cross-package resolution, as in the real module) and asserts
// the driver-coverage check fires for exactly the register the driver never
// touches.
func TestRegMapDriverCoverage(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "src", "regmapdrv"), "regmapdrv")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (core and soc)", len(pkgs))
	}
	byName := map[string][]Diagnostic{}
	for _, d := range CheckModule(pkgs, All()) {
		byName[d.Analyzer] = append(byName[d.Analyzer], d)
	}
	ds := byName["regmap"]
	if len(ds) != 1 {
		t.Fatalf("got %d regmap findings, want 1: %q", len(ds), messages(ds))
	}
	wantContains(t, ds, "RegPerfHi")
	wantContains(t, ds, "not exercised by the internal/soc driver")
	for name, other := range byName {
		if name != "regmap" && len(other) != 0 {
			t.Errorf("unexpected %s findings in regmapdrv fixture: %q", name, messages(other))
		}
	}
}
