// Package perf is the cycle-attribution observability layer: ordered
// hardware-performance-counter snapshots, a stall-attribution summary table,
// and a Chrome trace_event exporter. The paper's whole evaluation (Section 5:
// Figures 9-11, Tables 1-2) is an exercise in cycle attribution — where the
// accelerator spends time across DMA, extract, compute/extend and collect —
// and this package is the vocabulary every layer reports it in.
//
// The package is a leaf (standard library only): the simulator modules in
// internal/core, internal/mem and internal/sim own their counters and
// assemble Snapshots and Traces; perf only defines the types and exporters.
// Counters are provably inert — they never feed back into any Tick decision,
// which the golden tests in internal/core and internal/soc enforce
// bit-for-bit.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Entry is one named hardware counter value. Names are dotted module paths
// ("dma.rd.beats", "aligner0.extend_cycles") so exporters can group by
// module prefix.
type Entry struct {
	Name  string
	Value int64
}

// Snapshot is an ordered set of counter values. Order is part of the
// contract: it mirrors the hardware counter index space (RegPerfSelect), so
// two snapshots of one machine always align entry-by-entry and the JSON
// encoding is byte-stable across runs.
type Snapshot struct {
	Entries []Entry
}

// Get returns the named counter's value.
func (s Snapshot) Get(name string) (int64, bool) {
	for _, e := range s.Entries {
		if e.Name == name {
			return e.Value, true
		}
	}
	return 0, false
}

// Delta returns s minus base, entry-by-entry: the counters a bounded window
// of work (one job, one resilient run) accumulated on hardware whose
// counters are monotone over the machine's lifetime. Entries missing from
// base pass through unchanged.
func (s Snapshot) Delta(base Snapshot) Snapshot {
	baseVals := make(map[string]int64, len(base.Entries))
	for _, e := range base.Entries {
		baseVals[e.Name] = e.Value
	}
	out := Snapshot{Entries: make([]Entry, 0, len(s.Entries))}
	for _, e := range s.Entries {
		out.Entries = append(out.Entries, Entry{Name: e.Name, Value: e.Value - baseVals[e.Name]})
	}
	return out
}

// Equal reports whether two snapshots have identical entries in identical
// order — the determinism criterion the same-seed golden tests assert.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Entries) != len(o.Entries) {
		return false
	}
	for i, e := range s.Entries {
		if e != o.Entries[i] {
			return false
		}
	}
	return true
}

// MarshalJSON encodes the snapshot as a single JSON object whose keys appear
// in counter-index order (byte-stable; Go maps would reorder them).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, e := range s.Entries {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := json.Marshal(e.Name)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		fmt.Fprintf(&b, ":%d", e.Value)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON rebuilds a snapshot from the MarshalJSON encoding. The
// original entry order is reconstructed by scanning the object's tokens in
// document order.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("perf: snapshot JSON must be an object, got %v", tok)
	}
	s.Entries = nil
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := keyTok.(string)
		if !ok {
			return fmt.Errorf("perf: non-string counter name %v", keyTok)
		}
		var v int64
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("perf: counter %q: %w", key, err)
		}
		s.Entries = append(s.Entries, Entry{Name: key, Value: v})
	}
	return nil
}
