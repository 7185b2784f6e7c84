package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when a test re-executes the test binary
// with SUBTRAV_BENCH_MAIN set, so a test can observe its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("SUBTRAV_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SUBTRAV_BENCH_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// An unknown -format is a usage error, not a silent fall-back to text.
func TestUnknownFormatIsAUsageError(t *testing.T) {
	stderr, code := runMain(t, "-format", "json", "fig8")
	if code != 2 || !strings.Contains(stderr, "usage:") || !strings.Contains(stderr, `"json"`) {
		t.Errorf("-format json fig8: exit %d, stderr %q; want exit 2 with the usage line", code, stderr)
	}
}

// A -units entry that is not a whole positive number is refused, not
// read up to its first non-digit.
func TestMalformedUnitsExitNonZero(t *testing.T) {
	for _, units := range []string{"8x", "4.5", "1e3", "0", "-1", "1,,2"} {
		stderr, code := runMain(t, "-units="+units, "fig10")
		if code == 0 || !strings.Contains(stderr, "bad unit count") {
			t.Errorf("-units=%s: exit %d, stderr %q; want a non-zero exit naming the bad unit count", units, code, stderr)
		}
	}
}
