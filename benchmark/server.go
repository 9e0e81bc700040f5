package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one mpserved child process.
type server struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // process start to first correct response

	mu  sync.Mutex
	out bytes.Buffer // everything the child printed
	eof chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer starts bin with the workload's deployment flags on an
// ephemeral port and returns once probe has been answered correctly.
func startServer(bin string, w *workload, probe *request, timeout time.Duration) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, w.flags...)
	cmd := exec.Command(bin, args...)
	// If the benchmark dies, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	s := &server{cmd: cmd, eof: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go s.pump(stdout, addrc)
	select {
	case s.addr = <-addrc:
	case <-s.eof:
		s.kill()
		return nil, fmt.Errorf("mpserved exited before listening: %s", s.output())
	case <-time.After(timeout):
		s.kill()
		return nil, fmt.Errorf("mpserved did not report its address within %v", timeout)
	}
	for {
		if st, body, err := roundTrip(s.addr, probe.wire, timeout); err == nil && check(probe, st, body) == ok {
			break
		}
		if time.Since(t0) > timeout {
			s.kill()
			return nil, fmt.Errorf("mpserved gave no correct response within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// pump copies the child's output into s.out, reporting the listen
// address from the first line that carries one.
func (s *server) pump(r io.Reader, addrc chan<- string) {
	defer close(s.eof)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.out.WriteString(line)
		s.out.WriteByte('\n')
		s.mu.Unlock()
		if !sent {
			if m := listenRE.FindStringSubmatch(line); m != nil {
				addrc <- m[1]
				sent = true
			}
		}
	}
}

func (s *server) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain overruns; it returns everything it printed.
func (s *server) stop(timeout time.Duration) (string, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.eof
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return s.output(), fmt.Errorf("mpserved exit: %w", err)
		}
		return s.output(), nil
	case <-time.After(timeout):
		s.cmd.Process.Kill()
		<-done
		return s.output(), fmt.Errorf("mpserved did not drain within %v", timeout)
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.eof
	s.cmd.Wait()
}

// cpuSeconds returns the child's CPU time so far: the sum over its
// threads of /proc/<pid>/task/<tid>/schedstat run time, which is
// utime+stime at nanosecond rather than 10 ms resolution.  A window at
// 700 requests/s and 150 us each is only ~20 ticks of 10 ms per second,
// too coarse to compare runs by.
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat: %w", err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(ln, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// roundTrip sends one request on a fresh connection and reads its
// response.
func roundTrip(addr string, wire []byte, timeout time.Duration) (int, []byte, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(wire); err != nil {
		return 0, nil, err
	}
	var acc []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := nc.Read(buf)
		acc = append(acc, buf[:n]...)
		st, body, used, perr := parseResponse(acc)
		if perr != nil {
			return 0, nil, perr
		}
		if used > 0 {
			return st, body, nil
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// get fetches path, routed by key when key is non-empty.
func get(addr, path, key string, timeout time.Duration) ([]byte, error) {
	st, body, err := roundTrip(addr, wire(path, key), timeout)
	if err != nil {
		return nil, err
	}
	if st != 200 {
		return nil, fmt.Errorf("GET %s: status %d", path, st)
	}
	return body, nil
}
