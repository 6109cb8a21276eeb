package soc

import "repro/internal/core"

// NewFleet builds a core.Fleet of n machines and wraps each member in a
// full SoC (driver, CPU cost model, private memory), so batch simulators —
// wfasic-bench's fleet sweep, the serving layer's device backends — drive
// the members through exactly the same driver API a single-device run uses.
// The returned slice is indexed like the fleet's members: socs[w] wraps
// fleet.Member(w).
func NewFleet(cfg core.Config, n, memBytes int) (*core.Fleet, []*SoC, error) {
	fleet, err := core.NewFleet(cfg, n, memBytes)
	if err != nil {
		return nil, nil, err
	}
	socs := make([]*SoC, fleet.Size())
	for w := range socs {
		mb := fleet.Member(w)
		socs[w] = newSoC(cfg, mb.Machine, mb.Memory)
	}
	return fleet, socs, nil
}
