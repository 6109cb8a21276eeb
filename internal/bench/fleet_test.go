package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FleetScaling must keep the result digest identical across worker counts
// (it errors internally otherwise) and emit a diff-gateable JSON artifact
// whose only host-dependent lines carry the "wall_" key prefix.
func TestFleetScalingAndJSON(t *testing.T) {
	scale, err := FleetScaling(QuickParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(scale) != 3 { // workers 1, 2, 4
		t.Fatalf("got %d rows, want 3", len(scale))
	}
	for i, r := range scale {
		if r.Jobs != 8 {
			t.Errorf("row %d: %d jobs, want 2×maxWorkers = 8", i, r.Jobs)
		}
		if r.Digest != scale[0].Digest || r.TotalCycles != scale[0].TotalCycles {
			t.Errorf("row %d diverged: %s/%d vs %s/%d",
				i, r.Digest, r.TotalCycles, scale[0].Digest, scale[0].TotalCycles)
		}
	}

	var buf bytes.Buffer
	if err := WriteFleetJSON(scale, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc["schema"] != "wfasic-fleet-v2" {
		t.Fatalf("schema = %v", doc["schema"])
	}
	// Every nondeterministic (host wall-clock) field must sit on a line the
	// check.sh gate strips via its `"wall_` prefix, and at least one
	// deterministic field must survive the strip.
	var stable, wall int
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"wall_`) {
			wall++
		} else if strings.Contains(line, `"digest"`) {
			stable++
		}
	}
	if wall == 0 || stable == 0 {
		t.Fatalf("artifact lost its wall (%d) or stable (%d) lines:\n%s", wall, stable, buf.String())
	}
}
