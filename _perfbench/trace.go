package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// profiler records a CPU profile of each traced measured phase, plus the
// allocation profile just before and just after it, into dir.
type profiler struct {
	dir                string
	cpu, before, after []string
	cpuFile            *os.File
}

func newProfiler(parent string) (*profiler, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "prof-")
	if err != nil {
		return nil, err
	}
	return &profiler{dir: dir}, nil
}

// writeAllocs snapshots the cumulative allocation profile. The GC first
// publishes every allocation made so far into it.
func (p *profiler) writeAllocs(kind string) (string, error) {
	runtime.GC()
	name := filepath.Join(p.dir, fmt.Sprintf("%s-%d.pb.gz", kind, len(p.after)))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// start begins a traced measured phase.
func (p *profiler) start() error {
	name, err := p.writeAllocs("allocs-before")
	if err != nil {
		return err
	}
	p.before = append(p.before, name)
	cpu := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pb.gz", len(p.cpu)))
	if p.cpuFile, err = os.Create(cpu); err != nil {
		return err
	}
	p.cpu = append(p.cpu, cpu)
	return pprof.StartCPUProfile(p.cpuFile)
}

// stop ends the phase begun by start.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return err
	}
	name, err := p.writeAllocs("allocs-after")
	if err != nil {
		return err
	}
	p.after = append(p.after, name)
	return nil
}

// fold merges the recorded profiles with `go tool pprof -traces` and
// folds them by layer: CPU nanoseconds per bucket, and sampled allocated
// objects per layer over the measured phases only (after minus before).
func (p *profiler) fold() (cpu, allocs map[string]float64, err error) {
	if cpu, err = pprofFold(nil, p.cpu); err != nil {
		return nil, nil, err
	}
	after, err := pprofFold([]string{"-sample_index=alloc_objects"}, p.after)
	if err != nil {
		return nil, nil, err
	}
	before, err := pprofFold([]string{"-sample_index=alloc_objects"}, p.before)
	if err != nil {
		return nil, nil, err
	}
	allocs = map[string]float64{}
	for l, v := range after {
		allocs[l] = v - before[l]
	}
	return cpu, allocs, nil
}

// close removes the profile files.
func (p *profiler) close() error { return os.RemoveAll(p.dir) }

// pprofFold runs the toolchain's pprof over the merged profiles.
func pprofFold(flags, files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, flags...)
	if exe, err := os.Executable(); err == nil {
		args = append(args, exe)
	}
	args = append(args, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTraces(bytes.NewReader(out))
}
