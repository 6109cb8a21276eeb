package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/soc"
)

// FleetScaleRow is one worker count of the fleet-scaling sweep: the same job
// list run on a fleet of that size, with a digest over the job-ordered
// results that must be identical for every worker count.
type FleetScaleRow struct {
	Workers     int
	Jobs        int
	TotalCycles int64  // sum of per-job AccelCycles (identical across rows)
	Digest      string // sha256 over job-ordered cycles and outcomes
	WallNs      int64  // host wall-clock for the whole job list
}

// fleetProfile is the input set of the scaling sweep: the short-read profile
// keeps per-job times small so scheduling, not alignment length, dominates.
const fleetProfile = "100-5%"

// FleetScaling runs the same job list (2×maxWorkers jobs of the 100-5%
// profile) on fleets of 1, 2, 4, ... up to maxWorkers workers and errors if
// any worker count changes the job-ordered result digest — the determinism
// guarantee that makes fleet speedups free. Wall-clock scaling lands in the
// "wall_" JSON fields and the rendered report; everything else in the
// artifact is deterministic.
func FleetScaling(params Params, maxWorkers int) ([]FleetScaleRow, error) {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	cfg := core.ChipConfig()
	var profile seqgen.Profile
	for _, p := range seqgen.PaperSets(1) {
		if p.Name == fleetProfile {
			profile = p
		}
	}
	if profile.Name == "" {
		return nil, fmt.Errorf("bench: no paper profile %q", fleetProfile)
	}
	profile.NumPairs = params.pairsFor(profile)
	set := InputSetFor(profile, cfg.MaxReadLenCap)

	var counts []int
	for n := 1; n < maxWorkers; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, maxWorkers)
	jobs := 2 * maxWorkers

	var rows []FleetScaleRow
	for _, n := range counts {
		fleet, socs, err := soc.NewFleet(cfg, n, 1<<22)
		if err != nil {
			return nil, err
		}
		cycles := make([]int64, jobs)
		outs := make([][]soc.PairOutcome, jobs)
		t0 := time.Now()
		err = fleet.Do(jobs, func(w, job int) error {
			d := socs[w]
			// Reset between jobs: members run different job counts at
			// different worker counts, so every job must start from the
			// same post-reset state for the digests to agree.
			if err := d.Driver.Reset(); err != nil {
				return fmt.Errorf("fleet job %d: %w", job, err)
			}
			rep, err := d.RunAccelerated(set, soc.RunOptions{})
			if err != nil {
				return fmt.Errorf("fleet job %d: %w", job, err)
			}
			cycles[job] = rep.AccelCycles
			outs[job] = rep.Outcomes
			return nil
		})
		wall := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("bench: fleet(%d workers): %w", n, err)
		}
		h := sha256.New()
		var total int64
		for job := 0; job < jobs; job++ {
			total += cycles[job]
			fmt.Fprintf(h, "job %d: %d cycles\n", job, cycles[job])
			for _, o := range outs[job] {
				fmt.Fprintf(h, "  pair %d score %d ok %v\n", o.ID, o.Result.Score, o.Result.Success)
			}
		}
		row := FleetScaleRow{
			Workers:     n,
			Jobs:        jobs,
			TotalCycles: total,
			Digest:      hex.EncodeToString(h.Sum(nil)),
			WallNs:      wall,
		}
		if len(rows) > 0 && row.Digest != rows[0].Digest {
			return nil, fmt.Errorf("bench: fleet(%d workers) diverged from 1-worker digest: %s vs %s",
				n, row.Digest, rows[0].Digest)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFleetScaling formats the sweep with this host's wall-clock speedups.
func RenderFleetScaling(rows []FleetScaleRow) string {
	var b strings.Builder
	b.WriteString("Fleet batch-simulation scaling (" + fleetProfile + " jobs, identical digests asserted)\n")
	b.WriteString("========================================================================\n")
	fmt.Fprintf(&b, "host GOMAXPROCS=%d — wall speedup is bounded by available cores;\n", runtime.GOMAXPROCS(0))
	b.WriteString("the digest column is the determinism proof and is host-independent.\n")
	fmt.Fprintf(&b, "%8s %6s %14s %12s %9s  %s\n", "workers", "jobs", "total-cycles", "wall-ms", "speedup", "digest")
	var base float64
	for i, r := range rows {
		wall := float64(r.WallNs) / 1e6
		if i == 0 {
			base = wall
		}
		speedup := 0.0
		if wall > 0 {
			speedup = base / wall
		}
		fmt.Fprintf(&b, "%8d %6d %14d %12.1f %8.2fx  %s\n",
			r.Workers, r.Jobs, r.TotalCycles, wall, speedup, r.Digest[:12])
	}
	return b.String()
}

// fleetJSONDoc is the BENCH_10.json artifact: the fleet-determinism sweep.
// Fields under "wall_" keys are host wall-clock measurements and are the ONLY
// nondeterministic content — the regen+diff gate in scripts/check.sh strips
// lines matching `"wall_` before diffing, so everything else must stay
// byte-stable.
type fleetJSONDoc struct {
	Schema   string         `json:"schema"`
	Workload string         `json:"workload"`
	Fleet    fleetJSONSweep `json:"fleet"`
}

type fleetJSONSweep struct {
	Profile string `json:"profile"`
	// WallGomaxprocs records the parallelism the wall_ numbers were measured
	// under — on a 1-core host the sweep proves determinism, not speedup.
	WallGomaxprocs int             `json:"wall_gomaxprocs"`
	Rows           []fleetJSONScal `json:"rows"`
}

type fleetJSONScal struct {
	Workers     int    `json:"workers"`
	Jobs        int    `json:"jobs"`
	TotalCycles int64  `json:"total_cycles"`
	Digest      string `json:"digest"`
	// Host-measured (stripped by the diff gate).
	WallMillis   float64 `json:"wall_ms"`
	WallSpeedupX float64 `json:"wall_speedup_x"`
}

// WriteFleetJSON writes the machine-readable BENCH_10.json artifact for the
// sweep. Its floats are all wall-clock measurements, rounded to one decimal;
// they vary by host and are excluded from the regen+diff gate by their
// "wall_" key prefix.
func WriteFleetJSON(scale []FleetScaleRow, w io.Writer) error {
	doc := fleetJSONDoc{Schema: "wfasic-fleet-v2", Workload: "paper-sets"}
	doc.Fleet.Profile = fleetProfile
	doc.Fleet.WallGomaxprocs = runtime.GOMAXPROCS(0)
	var base float64
	for i, r := range scale {
		wall := float64(r.WallNs) / 1e6
		if i == 0 {
			base = wall
		}
		speedup := 0.0
		if wall > 0 {
			speedup = base / wall
		}
		doc.Fleet.Rows = append(doc.Fleet.Rows, fleetJSONScal{
			Workers:      r.Workers,
			Jobs:         r.Jobs,
			TotalCycles:  r.TotalCycles,
			Digest:       r.Digest,
			WallMillis:   round1(wall),
			WallSpeedupX: round1(speedup),
		})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// round1 rounds to one decimal place.
func round1(v float64) float64 {
	if v < 0 {
		return float64(int64(v*10-0.5)) / 10
	}
	return float64(int64(v*10+0.5)) / 10
}
