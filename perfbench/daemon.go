package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// daemon is one fourshadesd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	flags  []string
	client *http.Client
	logs   bytes.Buffer // the daemon's stderr, shown when it misbehaves
	exited chan struct{}
}

// startDaemon spawns fourshadesd with the given extra flags on a free
// loopback port and waits until /healthz answers. A port lost to a race
// between choosing and binding it shows as an early exit and is retried.
func startDaemon(bin string, conns int, extra ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			flags:  append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, extra...),
			exited: make(chan struct{}),
			client: &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
			},
		}
		d.cmd = exec.Command(bin, d.flags...)
		d.cmd.Stderr = &d.logs
		d.cmd.SysProcAttr = dieWithParent()
		start := time.Now()
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting fourshadesd: %w", err)
		}
		go func() { d.cmd.Wait(); close(d.exited) }()
		if err = d.waitHealthy(start); err == nil {
			return d, nil
		}
		d.stop()
		lastErr = err
	}
	return nil, lastErr
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// without stopping it, so no daemon or suite outlives a killed run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("choosing a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every 200µs, so start-up times measured around
// it are not quantised by the poll interval.
func (d *daemon) waitHealthy(start time.Time) error {
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("fourshadesd exited during start-up: %s", strings.TrimSpace(d.logs.String()))
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("fourshadesd not healthy after 30s")
}

// post sends one request and returns the status and body.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Engine engine.Stats `json:"engine"`
	Daemon struct {
		Requests int64 `json:"requests"`
		Computed int64 `json:"computed"`
		Deduped  int64 `json:"deduped"`
		Cached   int64 `json:"cached"`
	} `json:"daemon"`
	Store *store.Stats `json:"store"`
}

func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// cpuTime is the daemon's user+sys CPU so far, from /proc/<pid>/stat, which
// counts in USER_HZ (100 per second) ticks on Linux.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat CPU fields")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop asks the daemon to shut down (which flushes its store) and waits for
// it to exit, killing it if it does not within 20s.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// hostSteal reads the cumulative steal and total CPU ticks from /proc/stat.
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the host's steal share between two hostSteal readings.
func stealShare(s0, t0, s1, t1 int64) float64 { return ratio(float64(s1-s0), float64(t1-t0)) }
