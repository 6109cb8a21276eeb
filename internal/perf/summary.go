package perf

import (
	"fmt"
	"strings"
)

// Summary renders the stall-attribution table for one job window: every
// *_cycles counter as a share of the job's total cycles, grouped by module,
// with the remaining (non-cycle) counters listed as raw event counts. This
// is the per-component utilization/stall breakdown that credible accelerator
// comparisons hinge on — totals alone cannot say *where* the time went.
//
// totalCycles is the job's start-to-idle cycle count (RegCycleLo/Hi); zero
// suppresses the percentage column.
func Summary(s Snapshot, totalCycles int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cycle attribution (job total: %d cycles)\n", totalCycles)
	fmt.Fprintf(&b, "%-34s %14s %8s\n", "counter", "value", "% job")

	for _, group := range groupNames(s) {
		fmt.Fprintf(&b, "-- %s\n", group)
		for _, e := range s.Entries {
			if moduleOf(e.Name) != group {
				continue
			}
			if strings.HasSuffix(e.Name, "_cycles") && totalCycles > 0 {
				fmt.Fprintf(&b, "%-34s %14d %7.1f%%\n",
					e.Name, e.Value, 100*float64(e.Value)/float64(totalCycles))
			} else {
				fmt.Fprintf(&b, "%-34s %14d %8s\n", e.Name, e.Value, "-")
			}
		}
	}
	return b.String()
}

// moduleOf returns the module prefix of a counter name ("dma.rd.beats" →
// "dma", "aligner0.steps" → "aligner0").
func moduleOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// groupNames lists the module prefixes in first-appearance order (which is
// counter-index order, so the table layout is as stable as the snapshot).
func groupNames(s Snapshot) []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range s.Entries {
		g := moduleOf(e.Name)
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// Histogram is a FIFO occupancy histogram: Counts[i] is the number of
// sampled cycles the FIFO held exactly i words.
type Histogram struct {
	Name   string
	Counts []int64
}

// RenderHistogram formats an occupancy histogram as quantiles plus a
// compact sparkline-style bucket table (empty histograms render as such).
func RenderHistogram(h Histogram) string {
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return fmt.Sprintf("%s: no samples\n", h.Name)
	}
	q := func(p float64) int {
		target := int64(p * float64(total))
		var cum int64
		for occ, c := range h.Counts {
			cum += c
			if cum > target {
				return occ
			}
		}
		return len(h.Counts) - 1
	}
	return fmt.Sprintf("%s: samples=%d p50=%d p90=%d p99=%d max=%d\n",
		h.Name, total, q(0.50), q(0.90), q(0.99), maxOcc(h.Counts))
}

func maxOcc(counts []int64) int {
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			return i
		}
	}
	return 0
}
