package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a SIGTERMed serve may drain before it is killed.
const stopGrace = 20 * time.Second

// children tracks every subprocess the benchmark started, so the
// signal handler and the watchdog can reap them on any exit path.
var children = struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}{procs: map[*exec.Cmd]bool{}}

func track(c *exec.Cmd) {
	children.Lock()
	children.procs[c] = true
	children.Unlock()
}

func untrack(c *exec.Cmd) {
	children.Lock()
	delete(children.procs, c)
	children.Unlock()
}

// killChildren SIGKILLs every tracked process group. It is the last
// resort of the watchdog and the signal handler; orderly paths use
// server.stop.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.procs {
		if c.Process != nil {
			syscall.Kill(-c.Process.Pid, syscall.SIGKILL)
		}
	}
}

// server is one running `logstudy serve`.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	entries int    // entries the store held when serve opened it
	exited  chan struct{}
	waitErr error
	outMu   sync.Mutex
	out     strings.Builder
}

var bannerRE = regexp.MustCompile(`on http://([^/]+)/ \((?:\d+ shards, \d+ quarantined, )?([\d,]+) entries\)`)

// startServe launches serve on an ephemeral port, reads the port from
// its banner and waits for /healthz.
func startServe(ctx context.Context, bin string, args []string, client *http.Client) (*server, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	track(cmd)
	s := &server{cmd: cmd, exited: make(chan struct{})}
	banner := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			s.outMu.Lock()
			s.out.WriteString(line + "\n")
			s.outMu.Unlock()
			if m := bannerRE.FindStringSubmatch(line); m != nil {
				select {
				case banner <- m:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		s.waitErr = cmd.Wait()
		untrack(cmd)
		close(s.exited)
	}()
	select {
	case m := <-banner:
		s.base = "http://" + m[1]
		s.entries, _ = strconv.Atoi(strings.ReplaceAll(m[2], ",", ""))
	case <-s.exited:
		return nil, fmt.Errorf("serve exited before listening: %v\n%s", s.waitErr, s.output())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("serve exited before healthy: %v\n%s", s.waitErr, s.output())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *server) output() string {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return s.out.String()
}

// peakRSSMB reads the serve process's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM (serve drains its ingest queue and seals), waits
// up to stopGrace, then kills the process group. It returns the exit
// error of a graceful stop, or an error saying it had to kill.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(stopGrace):
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-s.exited
		return fmt.Errorf("serve did not stop within %v; killed", stopGrace)
	}
}

// runTool runs a logstudy subcommand to completion.
func runTool(ctx context.Context, bin string, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return err
	}
	track(cmd)
	err := cmd.Wait()
	untrack(cmd)
	if err != nil {
		return fmt.Errorf("logstudy %s: %v\n%s", args[0], err, out.String())
	}
	return nil
}
