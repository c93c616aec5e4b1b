package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An error exit still writes both profiles: the deferred writes run before
// the exit status reaches os.Exit.
func TestErrorExitKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	args := []string{"-scenario", filepath.Join(dir, "missing.json"), "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args); code != 1 {
		t.Fatalf("missing scenario exits %d, want 1", code)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s after an error exit: %v, %v", filepath.Base(f), st, err)
		}
	}
}

// -trace records a -jobs-file roster run too, with every job's events.
func TestTraceUnderJobsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-jobs-file", filepath.Join("..", "..", "examples", "multijob", "jobs.json"), "-trace", path}
	if code := run(args); code != 0 {
		t.Fatalf("roster run exits %d, want 0", code)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	for _, want := range []string{`"kind":"transfer_start"`, `"kind":"window_complete"`, `"job":2`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("trace lacks %s", want)
		}
	}
}
