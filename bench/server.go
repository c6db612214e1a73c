package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wfserve is one running wfserve process.
type wfserve struct {
	cmd  *exec.Cmd
	base string     // http://host:port
	done chan error // receives the process's exit once stderr is drained
}

// listenRE matches wfserve's startup log line carrying the bound address.
var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startWfserve execs the binary on a free loopback port and waits until it
// logs its address.
func startWfserve(bin string, flags []string) (*wfserve, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	// A benchmark killed before it stops wfserve takes wfserve with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wfserve: %w", err)
	}
	s := &wfserve{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr to EOF before Wait, as exec requires; keep the
		// lines before the address for the error message.
		var head bytes.Buffer
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !found {
				found = true
				addr <- m[1]
			} else if !found {
				head.WriteString(sc.Text() + "\n")
			}
		}
		if !found {
			close(addr)
		}
		err := cmd.Wait()
		if !found {
			err = fmt.Errorf("wfserve exited before listening (%v): %s", err, strings.TrimSpace(head.String()))
		}
		s.done <- err
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, <-s.done
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // reported as the timeout below
		<-s.done
		return nil, errors.New("wfserve did not log its address within 30s")
	}
}

// healthy polls /healthz until it answers 200.
func (s *wfserve) healthy(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wfserve /healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// rssPeakMiB reads the process's peak resident set (VmHWM).
func (s *wfserve) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks wfserve to drain and waits for it to exit, killing it if it
// has not after 10s.
func (s *wfserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // reported as the error below
		<-s.done
		return errors.New("wfserve did not exit within 10s of SIGTERM")
	}
}

// scrape is the part of wfserve's /metrics the benchmark reads.
type scrape struct {
	hits, misses, size float64
	// solveSum and solveCount total wfserve_solve_seconds over every cell
	// of one operation (solve or pareto).
	solveSum, solveCount float64
}

// scrapeMetrics reads /metrics, totalling the solve-latency series of op.
func (s *wfserve) scrapeMetrics(c *http.Client, op string) (scrape, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var m scrape
	opLabel := fmt.Sprintf(`op=%q`, op)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line) // label values hold no spaces
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name := f[0]
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case name == "wfserve_cache_hits_total":
			m.hits = v
		case name == "wfserve_cache_misses_total":
			m.misses = v
		case name == "wfserve_cache_size":
			m.size = v
		case strings.HasPrefix(name, "wfserve_solve_seconds_sum{") && strings.Contains(line, opLabel):
			m.solveSum += v
		case strings.HasPrefix(name, "wfserve_solve_seconds_count{") && strings.Contains(line, opLabel):
			m.solveCount += v
		}
	}
	if err := sc.Err(); err != nil {
		return scrape{}, fmt.Errorf("reading /metrics: %w", err)
	}
	return m, nil
}
