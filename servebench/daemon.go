package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running sketchtreed process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	out  chan struct{} // closed when the stdout reader has finished
}

const (
	readyTimeout = 120 * time.Second
	stopTimeout  = 20 * time.Second
)

// startDaemon launches bin with args plus a loopback listen address
// chosen by the kernel, and returns once the daemon prints its
// listening line (after any preload). stderr goes to a log file under
// logDir.
func startDaemon(bin, name, logDir string, args []string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// A daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logf, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found && strings.Contains(line, "listening on http://") {
				rest := line[strings.Index(line, "http://")+len("http://"):]
				if i := strings.IndexByte(rest, ' '); i >= 0 {
					rest = rest[:i]
				}
				addr <- rest
				found = true
			}
		}
		// Keep draining until the process closes stdout.
		_, _ = io.Copy(io.Discard, stdout)
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("%s exited before listening; see %s", name, logf.Name())
		}
		d.base = "http://" + a
	case <-time.After(readyTimeout):
		d.stop()
		return nil, fmt.Errorf("%s not ready after %v", name, readyTimeout)
	}
	return d, nil
}

// healthy polls GET /healthz until it answers 200.
func (d *daemon) healthy(c *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz not ok after %v (last error %v)", d.name, readyTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSKiB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within stopTimeout, and waits for the process and its stdout
// reader to finish.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.out
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// layout is the set of daemons one workload runs.
type layout struct {
	front  *daemon   // the daemon clients talk to
	shards []*daemon // cluster shards (nil for standalone)
}

func (l *layout) all() []*daemon {
	if l.front == nil {
		return l.shards
	}
	return append(append([]*daemon(nil), l.shards...), l.front)
}

func (l *layout) stop() {
	for _, d := range l.all() {
		d.stop()
	}
}

// boot launches the workload's daemons and returns once every one of
// them answers /healthz, with the time that took.
func boot(ctx context.Context, env *runEnv, spec workloadSpec, tag string) (*layout, time.Duration, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	start := time.Now()
	l := &layout{}
	fail := func(err error) (*layout, time.Duration, error) {
		l.stop()
		return nil, 0, err
	}
	if spec.Shards == 0 {
		args := spec.flags()
		if spec.Preload > 0 {
			args = append(args, "-forest", env.preloadPath)
		}
		d, err := startDaemon(env.daemonBin, spec.Name+"-"+tag, env.outDir, args)
		if err != nil {
			return fail(err)
		}
		l.front = d
	} else {
		// Shards boot concurrently; the coordinator needs their URLs.
		type started struct {
			i   int
			d   *daemon
			err error
		}
		ch := make(chan started, spec.Shards)
		for i := 0; i < spec.Shards; i++ {
			go func(i int) {
				d, err := startDaemon(env.daemonBin, fmt.Sprintf("%s-%s-shard%d", spec.Name, tag, i), env.outDir, spec.flags())
				ch <- started{i, d, err}
			}(i)
		}
		l.shards = make([]*daemon, spec.Shards)
		var firstErr error
		for i := 0; i < spec.Shards; i++ {
			s := <-ch
			l.shards[s.i] = s.d
			if s.err != nil && firstErr == nil {
				firstErr = s.err
			}
		}
		if firstErr != nil {
			var up []*daemon
			for _, d := range l.shards {
				if d != nil {
					up = append(up, d)
				}
			}
			l.shards = up
			return fail(firstErr)
		}
		urls := make([]string, len(l.shards))
		for i, d := range l.shards {
			urls[i] = d.base
		}
		args := append(spec.coordFlags(), "-shards", strings.Join(urls, ","))
		d, err := startDaemon(env.daemonBin, spec.Name+"-"+tag+"-coord", env.outDir, args)
		if err != nil {
			return fail(err)
		}
		l.front = d
	}
	for _, d := range l.all() {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if err := d.healthy(c); err != nil {
			return fail(err)
		}
	}
	return l, time.Since(start), nil
}
