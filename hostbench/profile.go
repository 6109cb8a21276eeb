package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profiler is the CPU profile of a traced run's profiled phase.
type profiler struct {
	dir string
	f   *os.File
}

func startCPUProfile(rc runConfig) (*profiler, error) {
	dir := filepath.Join(rc.outDir, "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, rc.workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{dir: dir, f: f}, nil
}

// stop ends the CPU profile and closes its file.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// report writes the allocation profile next to the CPU profile and prints
// the ten functions with the most flat CPU time.
func (p *profiler) report(rc runConfig) error {
	allocPath := filepath.Join(p.dir, rc.workload+".alloc.pprof")
	f, err := os.Create(allocPath)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(rc.log, "profiles %s %s\n", p.f.Name(), allocPath)

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(rc.log, "pprof top functions unavailable: %v\n", err)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=10", exe, p.f.Name()).Output()
	if err != nil {
		fmt.Fprintf(rc.log, "pprof top functions unavailable: %v\n", err)
		return nil
	}
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		fmt.Fprintf(rc.log, "pprof %s\n", line)
	}
	return nil
}
