package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one soxqd subprocess serving a fixture's documents.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once cmd.Wait has returned
	mu     sync.Mutex
	waitEr error
}

// startServer writes the fixture's documents into dir, starts bin on a free
// loopback port and returns once /healthz answers 200. The port is probed by
// binding 127.0.0.1:0 and releasing it; nothing else in the checkout's
// sandbox competes for it in the moment before soxqd binds.
func startServer(bin, dir string, fx *fixture) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	args := []string{"-addr", addr}
	names := make([]string, len(fx.docs))
	for i, d := range fx.docs {
		path := filepath.Join(dir, d.name)
		if err := os.WriteFile(path, d.xml, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-doc", d.name+"="+path)
		names[i] = d.name
	}
	if fx.corpus != "" {
		args = append(args, "-corpus", fx.corpus+"="+strings.Join(names, ","))
	}
	s := &serverProc{cmd: exec.Command(bin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// Should the harness be killed, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		err := s.cmd.Wait()
		s.mu.Lock()
		s.waitEr = err
		s.mu.Unlock()
		close(s.exited)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("soxqd exited during start-up: %v\n%s", s.waitErr(), s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("soxqd not healthy after 60s\n%s", s.stderr.String())
		}
	}
}

func (s *serverProc) waitErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitEr
}

// alive fails the run loudly when the server died under the workload.
func (s *serverProc) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("soxqd died early: %v\n%s", s.waitErr(), s.stderr.String())
	default:
		return nil
	}
}

// stop sends SIGTERM, waits for the process to end and reports a panic on
// its stderr or an early death as an error.
func (s *serverProc) stop() error {
	early := s.alive()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("soxqd ignored SIGTERM for 15s and was killed")
	}
	if early != nil {
		return early
	}
	if out := s.stderr.String(); strings.Contains(out, "panic:") || strings.Contains(out, "fatal error:") {
		return fmt.Errorf("soxqd stderr shows a crash:\n%s", out)
	}
	return nil
}

// statusMB returns one memory field of /proc/<pid>/status in MB: VmRSS, the
// resident set size now, or VmHWM, its high-water mark since the process
// started.
func statusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler polls the resident set size of the process under test while
// the op loop runs. Its peak is the memory the timed phase needed. VmHWM
// cannot say that: it also counts the garbage of loading, of every set-up of
// the run for an in-process workload, and the collector's timing moves that
// by a third from run to run. VmHWM is printed beside it, ungated.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
	err  error
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := statusMB(pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the largest size it saw.
func (s *rssSampler) peakMB() (float64, error) {
	close(s.stop)
	<-s.done
	return s.peak, s.err
}

// client is one keep-alive connection's worth of requests.
type client struct {
	http *http.Client
	br   *bufio.Reader
	last []byte
}

func newClient() *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		br:   bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one NDJSON response held.
type reply struct {
	rows    int    // row lines before the trailer
	sum     uint64 // FNV-1a of the whole body
	bytes   int64
	headers time.Duration // request sent -> response headers
	first   time.Duration // request sent -> first row parsed
	total   time.Duration // request sent -> last byte read
}

type ndjsonLine struct {
	XML   *string `json:"xml"`
	Done  bool    `json:"done"`
	Rows  int     `json:"rows"`
	Error string  `json:"error"`
}

// query sends one GET and reads every line of the NDJSON reply. It fails on
// a transport error, a non-200 status, a first line that is not a row, a
// missing or error trailer, or a trailer whose count disagrees with the
// lines read.
func (c *client) query(url string) (reply, error) {
	var r reply
	t0 := time.Now()
	resp, err := c.http.Get(url)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.headers = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	c.br.Reset(resp.Body)
	r.sum = fnvOffset
	lines := 0
	partial := false
	for {
		line, err := c.br.ReadSlice('\n')
		r.bytes += int64(len(line))
		r.sum = fnvAdd(r.sum, line)
		if !partial && len(line) > 0 {
			c.last = c.last[:0]
		}
		c.last = append(c.last, line...)
		if err == bufio.ErrBufferFull {
			partial = true
			continue
		}
		if err != nil && err != io.EOF {
			return r, err
		}
		partial = false
		if len(line) > 0 {
			lines++
			if lines == 1 {
				var row ndjsonLine
				if json.Unmarshal(c.last, &row) != nil || (row.XML == nil && !row.Done) {
					return r, fmt.Errorf("first line is neither a row nor a trailer: %.80s", c.last)
				}
				r.first = time.Since(t0)
			}
		}
		if err == io.EOF {
			break
		}
	}
	r.total = time.Since(t0)
	var tr ndjsonLine
	if lines == 0 || json.Unmarshal(c.last, &tr) != nil || !tr.Done || tr.Error != "" {
		return r, fmt.Errorf("missing or error trailer: %.120s", c.last)
	}
	r.rows = lines - 1
	if tr.Rows != r.rows {
		return r, fmt.Errorf("trailer says %d rows, read %d", tr.Rows, r.rows)
	}
	return r, nil
}

// queryURL is the GET form of a query; params is appended verbatim.
func (s *serverProc) queryURL(q, params string) string {
	return s.base + "/query?q=" + url.QueryEscape(q) + params
}

// rowsXML fetches url and decodes every row, for the untimed check of a
// reply against the in-process engine.
func (c *client) rowsXML(url string) ([]string, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out []string
	dec := json.NewDecoder(resp.Body)
	for {
		var l ndjsonLine
		if err := dec.Decode(&l); err == io.EOF {
			return nil, errors.New("reply ended without a trailer")
		} else if err != nil {
			return nil, err
		}
		if l.XML == nil {
			if !l.Done || l.Error != "" || l.Rows != len(out) {
				return nil, fmt.Errorf("bad trailer %+v after %d rows", l, len(out))
			}
			return out, nil
		}
		out = append(out, *l.XML)
	}
}

// scrape reads a text endpoint (/metrics) or a JSON one (/healthz) whole.
func (s *serverProc) scrape(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
