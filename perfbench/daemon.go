package main

import (
	"bytes"
	"encoding/json"
	"errors"
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
)

// daemon is one explaind process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	args []string
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // the process's exit error, valid after done closes
	log  *os.File
}

// readyTimeout bounds how long explaind may take to train its models.
const readyTimeout = 120 * time.Second

// startDaemon execs explaind serving specs on a free loopback port and
// waits until /readyz reports every model ready. It returns the time
// from exec to ready: the benchmark's set-up time.
func startDaemon(bin, logPath string, specs []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}
	for _, s := range specs {
		args = append(args, "-model", s)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		args: args,
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		done: make(chan struct{}),
		log:  logf,
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the kernel kills it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("exec explaind: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for {
		select {
		case <-d.done:
			logf.Close()
			return nil, 0, fmt.Errorf("explaind exited before ready (log in %s): %w", logPath, d.err)
		default:
		}
		if time.Since(start) > readyTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("explaind not ready after %v; log in %s", readyTimeout, logPath)
		}
		if allReady(c, d.base, len(specs)) {
			return d, time.Since(start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func allReady(c *http.Client, base string, want int) bool {
	var rr struct {
		Models []struct {
			State string `json:"state"`
		} `json:"models"`
	}
	if code, err := getJSON(c, base+"/readyz", &rr); err != nil || code != http.StatusOK {
		return false
	}
	n := 0
	for _, m := range rr.Models {
		if m.State == "ready" {
			n++
		}
	}
	return n == want
}

// stop sends SIGTERM, waits for a graceful exit and kills the process if
// it does not come.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// cpuTime returns the CPU time the process has used so far (user +
// system), read from /proc; 0 where that is unavailable.
func (d *daemon) cpuTime() time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 12th and 13th of them, in clock ticks (100 per second on Linux).
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// cpuTicks returns the machine's cumulative CPU ticks stolen by the
// hypervisor and in total, from /proc/stat; zeros where unavailable.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte
}

func post(c *http.Client, url string, body []byte) (reply, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// postJSON posts body and decodes a 2xx reply into out.
func postJSON(c *http.Client, url string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	r, err := post(c, url, b)
	if err != nil {
		return err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, r.status, bytes.TrimSpace(r.body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// getJSON decodes a GET reply into out and returns its status.
func getJSON(c *http.Client, url string, out any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// cacheStats is the global block of GET /v1/cachez.
type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evicted   int64 `json:"evicted"`
}

type cachez struct {
	Enabled bool       `json:"enabled"`
	Global  cacheStats `json:"global"`
	Models  []struct {
		Name   string `json:"name"`
		Digest string `json:"digest"`
	} `json:"models"`
}

func getCachez(c *http.Client, base string) (cachez, error) {
	var cz cachez
	if _, err := getJSON(c, base+"/v1/cachez", &cz); err != nil {
		return cz, err
	}
	if !cz.Enabled {
		return cz, errors.New("explaind reports its result cache disabled")
	}
	return cz, nil
}

func (cz cachez) digest(model string) string {
	for _, m := range cz.Models {
		if m.Name == model {
			return m.Digest
		}
	}
	return ""
}
