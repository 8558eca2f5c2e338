package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one aarohid child process on loopback ephemeral ports.
type daemon struct {
	cmd      *exec.Cmd
	tcpAddr  string
	httpAddr string
	client   *http.Client // one keep-alive connection for statusz/alerts
	done     chan struct{}
	waitErr  error

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon execs the daemon and returns once /readyz answers 200, with
// the time from exec to that answer (the setup_s sample).
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	args = append([]string{"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	// The kernel kills the daemon if this process dies without reaping it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d.cmd.Stdout = io.Discard
	addrs := make(chan [2]string, 1)
	// The setup is ~2 s of CPU-bound model compile: collect this process's
	// garbage now, so the collector does not run beside it on two CPUs.
	runtime.GC()
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	live.add(d)
	go d.readStderr(errPipe, addrs)
	go func() {
		d.waitErr = d.cmd.Wait()
		live.remove(d)
		close(d.done)
	}()

	select {
	case a := <-addrs:
		d.tcpAddr, d.httpAddr = a[0], a[1]
	case <-d.done:
		return nil, 0, fmt.Errorf("daemon exited during start: %v\n%s", d.waitErr, d.log())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("daemon did not report its listeners within 60s\n%s", d.log())
	}
	for {
		resp, err := d.client.Get("http://" + d.httpAddr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(t0)
				d.client.CloseIdleConnections()
				return d, setup, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready within 60s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// live tracks started daemons so an interrupted run can stop them all.
var live = &daemonSet{m: map[*daemon]bool{}}

type daemonSet struct {
	mu sync.Mutex
	m  map[*daemon]bool
}

func (s *daemonSet) add(d *daemon)    { s.mu.Lock(); s.m[d] = true; s.mu.Unlock() }
func (s *daemonSet) remove(d *daemon) { s.mu.Lock(); delete(s.m, d); s.mu.Unlock() }

// killAll SIGKILLs every live daemon and waits until each is reaped.
func (s *daemonSet) killAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.m))
	for d := range s.m {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// readStderr keeps the daemon's log for error reports and picks the bound
// listener addresses out of its startup lines.
func (d *daemon) readStderr(r io.Reader, addrs chan<- [2]string) {
	sc := bufio.NewScanner(r)
	var tcp, httpA string
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if d.stderr.Len() < 1<<16 {
			d.stderr.WriteString(line + "\n")
		}
		d.mu.Unlock()
		if i := strings.Index(line, "tcp line protocol on "); i >= 0 {
			tcp = strings.Fields(line[i+len("tcp line protocol on "):])[0]
		}
		if i := strings.Index(line, "http api on "); i >= 0 {
			httpA = strings.Fields(line[i+len("http api on "):])[0]
		}
		if !sent && tcp != "" && httpA != "" {
			addrs <- [2]string{tcp, httpA}
			sent = true
		}
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and waits for it to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	d.client.CloseIdleConnections()
}

// status is the subset of /statusz the benchmark reads.
type status struct {
	LinesAccepted   int64 `json:"lines_accepted"`
	SubscriberDrops int64 `json:"subscriber_drops"`
	Manager         struct {
		LinesScanned int64
		Parser       struct{ Matches int64 }
	} `json:"manager"`
	Shards []struct {
		WALOffset uint64 `json:"wal_offset"`
		Arbiter   *struct {
			Predictions uint64 `json:"predictions"`
			Failures    uint64 `json:"failures"`
		} `json:"arbiter"`
	} `json:"shards"`
	Recovery *struct {
		RecoveredOutputs int `json:"recovered_outputs"`
	} `json:"recovery"`
}

func (d *daemon) status() (*status, error) {
	resp, err := d.client.Get("http://" + d.httpAddr + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitStatus polls /statusz every period until ok holds or timeout passes.
func (d *daemon) waitStatus(period, timeout time.Duration, ok func(*status) bool) (*status, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := d.status()
		if err != nil {
			return nil, err
		}
		if ok(st) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("statusz condition not met within %s", timeout)
		}
		time.Sleep(period)
	}
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime is the process's user+sys CPU from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSS is the process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
