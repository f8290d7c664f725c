package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// harness owns what one bench invocation leaves on the machine: the built
// binaries, a scratch directory inside the checkout, and the child
// processes. close undoes all of it except the binaries.
type harness struct {
	root   string // the ngd module's directory
	bin    string // built ngdserve and ngdcheck
	work   string // inputs, data directories, child stderr
	keep   bool   // work was named with -out: leave it behind
	buildS float64

	mu       sync.Mutex
	children map[*exec.Cmd]chan struct{} // closed once the child is reaped
}

// findRoot walks up from the working directory to the ngd module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module ngd\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ngd module: no go.mod with `module ngd` above the working directory")
		}
		dir = parent
	}
}

// newHarness builds the two binaries under test into .bench_build/bin of
// the checkout and creates the scratch directory (out, or a fresh one under
// .bench_build when out is empty).
func newHarness(out string) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, bin: filepath.Join(root, ".bench_build", "bin"), children: make(map[*exec.Cmd]chan struct{})}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", h.bin+string(filepath.Separator), "./cmd/ngdserve", "./cmd/ngdcheck")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/ngdserve ./cmd/ngdcheck: %v\n%s", err, msg)
	}
	h.buildS = time.Since(start).Seconds()
	if out != "" {
		h.work, h.keep = out, true
		return h, os.MkdirAll(out, 0o755)
	}
	h.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	return h, err
}

// close kills and reaps every child still running and removes the scratch
// directory.
func (h *harness) close() {
	h.mu.Lock()
	running := make(map[*exec.Cmd]chan struct{}, len(h.children))
	for cmd, done := range h.children {
		running[cmd] = done
	}
	h.mu.Unlock()
	for cmd, done := range running {
		_ = cmd.Process.Kill() // already exited is fine
		<-done
	}
	if !h.keep {
		_ = os.RemoveAll(h.work) // best effort: the directory is under .bench_build
	}
}

// path names a file in the scratch directory.
func (h *harness) path(elem ...string) string {
	return filepath.Join(append([]string{h.work}, elem...)...)
}

// start launches a built binary with its stderr appended to <log>.stderr in
// the scratch directory and registers it for close.
func (h *harness) start(log, name string, args ...string) (*exec.Cmd, *bytes.Buffer, error) {
	errFile, err := os.OpenFile(h.path(log+".stderr"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.bin, name), args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, errFile
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	h.children[cmd] = done
	go func() {
		_ = cmd.Wait() // exit status is read from ProcessState by whoever cares
		h.mu.Lock()
		delete(h.children, cmd)
		h.mu.Unlock()
		close(done)
	}()
	return cmd, &stdout, nil
}

// reaped returns the channel closed once cmd has been waited for.
func (h *harness) reaped(cmd *exec.Cmd) <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if done, ok := h.children[cmd]; ok {
		return done
	}
	closed := make(chan struct{})
	close(closed)
	return closed
}

// stderrTail returns the end of a child's captured stderr for error reports.
func (h *harness) stderrTail(log string) string {
	b, _ := os.ReadFile(h.path(log + ".stderr"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// daemon is one running ngdserve.
type daemon struct {
	h    *harness
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
}

// bootDeadline bounds one daemon boot: exec to the first 200 from /healthz.
const bootDeadline = 60 * time.Second

// healthzEvery is the poll interval during a boot: under 1 % of the shortest
// boot, and sparse enough that the polling does not compete with the boot
// for the host's two cores.
const healthzEvery = 2 * time.Millisecond

// startDaemon picks a free loopback port, launches ngdserve on it and polls
// /healthz until it answers 200. The returned duration is exec to that
// answer: parse, admission gate, seeding detection, store bootstrap or
// recovery, listener start.
func (h *harness) startDaemon(log string, args ...string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	cmd, _, err := h.start(log, "ngdserve", append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{h: h, cmd: cmd, base: "http://" + addr}
	exited := h.reaped(cmd)
	probe := &http.Client{Timeout: time.Second}
	for time.Since(start) < bootDeadline {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-exited:
			return nil, 0, fmt.Errorf("ngdserve exited during boot:\n%s", h.stderrTail(log))
		case <-time.After(healthzEvery):
		}
	}
	d.kill()
	return nil, 0, fmt.Errorf("ngdserve did not answer /healthz within %v:\n%s", bootDeadline, h.stderrTail(log))
}

// kill sends SIGKILL and waits until the daemon is reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.h.reaped(d.cmd)
}

// peakRSSMB reads a live process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// checkRun is one finished ngdcheck process.
type checkRun struct {
	wall   time.Duration
	rssMB  float64
	stdout string
}

// runCheck runs ngdcheck to completion and times it from exec to exit. Its
// peak RSS is VmHWM sampled while it runs: ru_maxrss is no use here, because
// a child's figure starts at its parent's high-water mark across exec, which
// is this process's once it has held a large model graph.
func (h *harness) runCheck(args ...string) (checkRun, error) {
	start := time.Now()
	cmd, stdout, err := h.start("ngdcheck", "ngdcheck", args...)
	if err != nil {
		return checkRun{}, err
	}
	var run checkRun
	sample := time.NewTicker(5 * time.Millisecond)
	defer sample.Stop()
	for exited := h.reaped(cmd); run.wall == 0; {
		select {
		case <-exited:
			run.wall = time.Since(start)
		case <-sample.C:
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				run.rssMB = max(run.rssMB, mb)
			}
		}
	}
	run.stdout = stdout.String()
	if !cmd.ProcessState.Success() {
		return run, fmt.Errorf("ngdcheck %s: %v\n%s", strings.Join(args, " "), cmd.ProcessState, h.stderrTail("ngdcheck"))
	}
	return run, nil
}
