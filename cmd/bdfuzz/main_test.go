package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with BDFUZZ_RUN_MAIN set, so a test can read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("BDFUZZ_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A replay line whose keyspace exceeds the subject's universe exits 2 with
// a usage error naming the limit, not 1 with the structure's panic.
func TestReplayBeyondKeySpaceExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-replay", "subject=veb seed=0x1 ops=64 workers=1 keyspace=1000000 evict=0.50 events=1 crash-after=10 crash-step=0 tail-adv=0 adv-every=8 spurious=0.00 memtype=0.00 async=0")
	cmd.Env = append(os.Environ(), "BDFUZZ_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "keyspace 1000000 exceeds veb's maximum 65536") || strings.Contains(string(out), "FAIL") {
		t.Fatalf("output does not name the keyspace limit:\n%s", out)
	}
}
