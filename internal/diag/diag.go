// Package diag is the plumbing the benchmark binaries share. It wires Go's
// runtime profilers into them so the hot paths of the simulation core stay
// inspectable — every command exposes -cpuprofile/-memprofile flags backed
// by StartProfiles, and cmd/secmon additionally serves the net/http/pprof
// endpoints — and it holds what convbench and luleshbench do alike with
// their -out, -csv, -profile and -verify flags.
package diag

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/telemetry"
	"repro/internal/verify"
)

// ResolveOut places a relative artifact path inside dir (created on
// demand); absolute paths and an empty dir pass through unchanged.
func ResolveOut(dir, name string) (string, error) {
	if dir == "" || filepath.IsAbs(name) {
		return name, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// WriteArtifact creates the artifact name resolves to under dir (see
// ResolveOut), fills it with write and closes it; it returns the path.
func WriteArtifact(dir, name string, write func(io.Writer) error) (string, error) {
	path, err := ResolveOut(dir, name)
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// WriteProfileSummary is the tail of a -profile run: the sweep's largest
// completed profile (nil when every profiled unit — a convolution point, a
// LULESH cell — failed) goes to name under dir as JSON, and its binding
// diagnosis and the path to standard output.
func WriteProfileSummary(dir, name string, p *telemetry.Profile, unit string) error {
	if p == nil {
		return fmt.Errorf("profile: every profiled %s failed; no summary to write", unit)
	}
	path, err := WriteArtifact(dir, name, p.WriteJSON)
	if err != nil {
		return err
	}
	fmt.Printf("telemetry: %s\n", p.Summary())
	fmt.Printf("telemetry summary written to %s\n", path)
	return nil
}

// ReportViolations is the tail of a -verify run: each violation on
// standard error and an error that counts them, or the all-clear line.
func ReportViolations(violations []verify.Violation) error {
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "verify: "+v.String())
		}
		return fmt.Errorf("verify: %d violation(s) across the sweep's runs", len(violations))
	}
	fmt.Println("verify: every run satisfied the section and collective contracts")
	return nil
}

// StartProfiles starts a CPU profile at cpuPath and arranges for a heap
// profile at memPath; either may be empty to skip that profile. The
// returned stop function ends the CPU profile and writes the heap profile,
// and must be called exactly once (on the success path — a profile cut
// short by a fatal error is not written).
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("diag: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("diag: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("diag: create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return fmt.Errorf("diag: write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
