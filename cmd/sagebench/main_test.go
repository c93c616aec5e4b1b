package main

import (
	"os"
	"path/filepath"
	"testing"
)

// An error exit still writes both profiles: the deferred writes run before
// the exit status reaches os.Exit.
func TestErrorExitKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if code := run([]string{"-exp", "99", "-cpuprofile", cpu, "-memprofile", mem}); code != 1 {
		t.Fatalf("unknown experiment exits %d, want 1", code)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s after an error exit: %v, %v", filepath.Base(f), st, err)
		}
	}
}
