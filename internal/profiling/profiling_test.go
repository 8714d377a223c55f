package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestConfigWritesProfiles drives the flag plumbing end to end:
// -cpuprofile and -memprofile parsed from a flag set must each leave a
// non-empty profile on disk once Stop returns.
func TestConfigWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var c Config
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.AddFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Busywork so the CPU profile has something to sample.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}
