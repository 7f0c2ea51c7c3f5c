package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Measured passes run in child processes of this binary: every pass
// starts from a fresh heap (so peak RSS is one pass's, and process-wide
// caches such as mloops.TrainingSet start cold). A child prints
// "ready <cpu seconds>" once its set-up is done, with the CPU time it
// has used since it started, and then, unless it is a set-up probe,
// one JSON report line.

// childArgs builds the argument list for a child pass of r's seed.
func childArgs(r *run, mode string, workers int, traced bool) []string {
	trace := "0"
	if traced {
		trace = "1"
	}
	return []string{"-child", mode, "-seed", strconv.FormatInt(r.seed, 10),
		"-workers", strconv.Itoa(workers), "-trace", trace}
}

// spawn runs a child, returns the CPU time it reported on its "ready"
// line, and decodes its report into out (nil for a probe).
func spawn(args []string, out any) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	br := bufio.NewReader(stdout)
	var ready time.Duration
	readErr := func() error {
		line, err := br.ReadString('\n')
		cpu, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
		secs, perr := strconv.ParseFloat(cpu, 64)
		if err != nil || !ok || perr != nil {
			return fmt.Errorf("child %v did not report ready (%q): %v", args, line, err)
		}
		ready = time.Duration(secs * float64(time.Second))
		if out == nil {
			return nil
		}
		report, err := br.ReadBytes('\n')
		if err == nil {
			err = json.Unmarshal(report, out)
		}
		if err != nil {
			return fmt.Errorf("reading the report of child %v: %w", args, err)
		}
		return nil
	}()
	_, _ = io.Copy(io.Discard, br)
	if err := cmd.Wait(); err != nil && readErr == nil {
		readErr = fmt.Errorf("child %v: %w", args, err)
	}
	return ready, readErr
}

// sayReady prints a child's ready line.
func sayReady() { fmt.Println("ready", cpuTime().Seconds()) }

// report prints a child's JSON report line.
func report(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
