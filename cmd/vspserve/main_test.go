package main

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// TestMain lets the test binary stand in for the real command: when
// VSPSERVE_MAIN=1 it runs main() instead of the test suite, so the graceful
// shutdown test below can drive a real process with real signals.
func TestMain(m *testing.M) {
	if os.Getenv("VSPSERVE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func writeFixtures(t *testing.T) (topoP, catP string) {
	t.Helper()
	dir := t.TempDir()
	topo := topology.Star(topology.GenConfig{Storages: 2, UsersPerStorage: 1, Capacity: 10 * units.GB})
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	topoP = filepath.Join(dir, "topo.json")
	f, err := os.Create(topoP)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	catP = filepath.Join(dir, "catalog.json")
	f, err = os.Create(catP)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return
}

// TestGracefulShutdown: SIGTERM makes the server drain and exit cleanly.
func TestGracefulShutdown(t *testing.T) {
	topoP, catP := writeFixtures(t)
	cmd := exec.Command(os.Args[0],
		"-topo", topoP, "-catalog", catP, "-addr", "127.0.0.1:0", "-idle-timeout", "5s")
	cmd.Env = append(os.Environ(), "VSPSERVE_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the startup line, then signal and collect the rest.
	sc := bufio.NewScanner(stderr)
	var lines []string
	started := false
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if strings.Contains(sc.Text(), "listening on") {
			started = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !started {
		t.Fatalf("server never reported listening; log:\n%s", strings.Join(lines, "\n"))
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\nlog:\n%s", err, strings.Join(lines, "\n"))
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not exit after SIGTERM; log:\n%s", strings.Join(lines, "\n"))
	}
	log := strings.Join(lines, "\n")
	if !strings.Contains(log, "shutting down") || !strings.Contains(log, "stopped") {
		t.Errorf("shutdown log incomplete:\n%s", log)
	}
}

// TestFsyncFlagRefusesInterval: the journal has two flush policies, and a
// command line still asking for the third does not start — it is told which
// two there are.
func TestFsyncFlagRefusesInterval(t *testing.T) {
	topoP, catP := writeFixtures(t)
	cmd := exec.Command(os.Args[0],
		"-topo", topoP, "-catalog", catP, "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-fsync", "interval")
	cmd.Env = append(os.Environ(), "VSPSERVE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("vspserve -fsync interval started and exited cleanly; log:\n%s", out)
	}
	if exit := new(exec.ExitError); !errors.As(err, &exit) {
		t.Fatal(err)
	}
	if log := string(out); !strings.Contains(log, "always") || !strings.Contains(log, "never") || strings.Contains(log, "listening on") {
		t.Errorf("refusal does not name the two policies, or the server came up first:\n%s", log)
	}
}

// TestAdvanceLagFlagRefusesBadValues: a lag that is not a finite number of
// hours, one too large to hold in seconds, or a negative one does not start
// the server — it exits 1 saying which.
func TestAdvanceLagFlagRefusesBadValues(t *testing.T) {
	topoP, catP := writeFixtures(t)
	for value, want := range map[string]string{
		"NaN":  "-advance-lag-hours NaN",
		"+Inf": "-advance-lag-hours +Inf",
		"-Inf": "-advance-lag-hours -Inf",
		"3e15": "-advance-lag-hours 3e+15",
		"-1":   "negative advance lag",
	} {
		// A server that did start is killed at the deadline, and fails below.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0],
			"-topo", topoP, "-catalog", catP, "-addr", "127.0.0.1:0", "-advance-lag-hours", value)
		cmd.Env = append(os.Environ(), "VSPSERVE_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-advance-lag-hours %s: %v, want exit status 1; log:\n%s", value, err, out)
		}
		if log := string(out); !strings.Contains(log, want) || strings.Contains(log, "listening on") {
			t.Errorf("-advance-lag-hours %s: refusal does not name %q, or the server came up first:\n%s", value, want, log)
		}
	}
}
