package lint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotallocFindings pins the hotalloc fixture: one finding per allocation
// kind reachable from the three root shapes plus the //vet:hotpath directive
// root, the sliding queue's append, and none from cold paths, exempt
// patterns, constants, unreached code, or the //vet:allow'd site.
func TestHotallocFindings(t *testing.T) {
	byName := dirDiags(t, "hotalloc")
	ds := byName["hotalloc"]
	if len(ds) != 18 {
		t.Fatalf("got %d hotalloc findings, want 18: %q", len(ds), messages(ds))
	}

	// One per classifier kind.
	wantContains(t, ds, "(make): make([]int)")
	wantContains(t, ds, "(new): new(hotalloc.Machine)")
	wantContains(t, ds, "(complit): []int{…}")
	wantContains(t, ds, "(complit): &hotalloc.Machine{…}")
	wantContains(t, ds, "(append-grow): append to m.buf")
	wantContains(t, ds, "boxed into any param of take")
	wantContains(t, ds, "boxed into any param of logf")
	wantContains(t, ds, "variadic ...any slice for logf")
	wantContains(t, ds, "(fmt): fmt.Sprintf")
	wantContains(t, ds, "(closure): func literal")
	wantContains(t, ds, "(closure): method value m.bump")
	wantContains(t, ds, "(string-conv): string -> []byte")
	wantContains(t, ds, "(map-write): write to m.seen")
	wantContains(t, ds, "append to p.tmp")
	// A truncate-reset field that is also re-sliced from its head is a
	// sliding queue, not reusable scratch.
	wantContains(t, ds, "append to m.queue")
	// The //vet:hotpath directive root reaches its helper's append.
	wantContains(t, ds, "append to b.trace")
	// The witness-shaped directive root flags its reject-path append.
	wantContains(t, ds, "append to w.rejects")

	// Negative space: cold paths, exemptions, unreached code, waiver.
	wantNotContains(t, ds, "NewMachine")
	wantNotContains(t, ds, "Reset")
	wantNotContains(t, ds, "rebuild")
	wantNotContains(t, ds, "m.scratch")     // truncate-reset field exemption
	wantNotContains(t, ds, "append to tmp") // prealloc-local exemption
	wantNotContains(t, ds, "Score")         // allocates but is not hot
	wantNotContains(t, ds, "make([]byte)")  // waived by //vet:allow hotalloc
	wantNotContains(t, ds, "witnessReplay") // hot but allocation-free

	// Every finding carries a witness chain back to its root.
	for _, d := range ds {
		if !strings.Contains(d.Message, "reached via ") {
			t.Errorf("finding lacks a witness chain: %s", d.Message)
			continue
		}
		if !strings.Contains(d.Message, "Tick") &&
			!strings.Contains(d.Message, "Step") &&
			!strings.Contains(d.Message, "Align") &&
			!strings.Contains(d.Message, "admit") &&
			!strings.Contains(d.Message, "witnessGate") {
			t.Errorf("witness chain names no root: %s", d.Message)
		}
	}

	// The live //vet:allow hotalloc must not be reported stale.
	if stale := byName[suppressName]; len(stale) != 0 {
		t.Errorf("the live //vet:allow hotalloc was reported stale: %q", messages(stale))
	}
}

// TestHotallocWitnessChains asserts helper findings spell the full call
// chain, not just the endpoint.
func TestHotallocWitnessChains(t *testing.T) {
	ds := dirDiags(t, "hotalloc")["hotalloc"]
	var sawChain bool
	for _, d := range ds {
		if strings.Contains(d.Message, "(*Machine).Tick -> ") {
			sawChain = true
		}
	}
	if !sawChain {
		t.Errorf("no finding shows a Tick -> helper chain: %q", messages(ds))
	}
}

// TestDumpAllocsJSONStable builds the fixture graph twice and asserts the
// -dump-allocs artifact is byte-identical, carries the schema tag, the
// derived roots, hot/cold verdicts, and the exempt marking.
func TestDumpAllocsJSONStable(t *testing.T) {
	dir := filepath.Join("testdata", "src", "hotalloc")
	dump := func() []byte {
		t.Helper()
		p, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir: %v", err)
		}
		out, err := DumpAllocsJSON(BuildCallGraph([]*Package{p}), dir)
		if err != nil {
			t.Fatalf("DumpAllocsJSON: %v", err)
		}
		return out
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("two dumps differ:\n%s\nvs\n%s", a, b)
	}
	s := string(a)
	if !strings.Contains(s, `"schema": "wfasic-allocs-v1"`) {
		t.Errorf("dump lacks the schema tag:\n%s", s)
	}
	for _, root := range []string{"(*Machine).Tick", "(*Pipe).Step", "Align"} {
		if !strings.Contains(s, root) {
			t.Errorf("dump roots lack %s", root)
		}
	}
	if !strings.Contains(s, `"hot": true`) {
		t.Errorf("dump has no hot node")
	}
	if !strings.Contains(s, `"exempt": true`) {
		t.Errorf("dump does not mark the truncate-reset append exempt")
	}
	if !strings.Contains(s, `"witness"`) {
		t.Errorf("dump carries no witness chain")
	}
	// Score allocates but is cold: its node must appear without a hot flag.
	if !strings.Contains(s, "Score") {
		t.Errorf("dump omits the cold allocating function Score")
	}
}
