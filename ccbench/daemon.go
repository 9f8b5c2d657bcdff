package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one ccmd child process listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	outDone chan struct{} // closed when the child's stdout is drained
	client  *http.Client  // for /healthz and /statsz
}

// startDaemon execs ccmd with its default flags on a free loopback
// port and returns once /healthz answers 200, with the time from exec
// to that answer.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ccmd: %w", err)
	}
	d := &daemon{cmd: cmd, outDone: make(chan struct{}), client: &http.Client{Timeout: 10 * time.Second}}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	const banner = "ccmd: serving on "
	if err != nil || !strings.HasPrefix(line, banner) {
		cmd.Process.Kill()
		io.Copy(io.Discard, br)
		cmd.Wait()
		return nil, 0, fmt.Errorf("ccmd did not report its address (got %q, %v)", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, banner))
	go func() {
		io.Copy(io.Discard, br)
		close(d.outDone)
	}()
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("ccmd not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 30s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.outDone:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.outDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("ccmd exit: %w", err)
	}
	return nil
}

// statsz reads the daemon's /statsz document.
func (d *daemon) statsz() (serve.Statsz, error) {
	var st serve.Statsz
	resp, err := d.client.Get(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100
// on every Linux architecture Go supports).
const clockTicks = 100

// procCPU returns the user+sys CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS makes the calling process's VmHWM start again from its
// current RSS (see proc(5), clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostTicks is the machine-wide CPU time of /proc/stat: the time the
// hypervisor stole from this VM, and the total.
type hostTicks struct{ steal, total int64 }

func readHostTicks() (hostTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	var h hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("malformed /proc/stat line %q", line)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealSince is the share of CPU time stolen since an earlier reading.
func (h hostTicks) stealSince(prev hostTicks) float64 {
	return ratio(float64(h.steal-prev.steal), float64(h.total-prev.total))
}

// reportSteal tells stderr how much CPU time the hypervisor stole
// during a measurement.
func reportSteal(w io.Writer, share float64) {
	fmt.Fprintf(w, "ccbench: hypervisor steal %.1f%% of CPU time during the timed run\n", 100*share)
}

// calmest returns the indices of the quarter (rounded up) of the
// measurement slices with the least stolen CPU time, and of every
// slice that ties with the calmest of those left out, in slice order.
// The measuring VM shares its host: while the hypervisor steals, ops
// stall for whole scheduling quanta and run slower between them,
// which shows in every timing, CPU time per op included. Timings are
// taken over the calmest slices, so a neighbour's burst does not
// decide the result; when steal is even, every slice is used.
func calmest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := (len(idx) + 3) / 4
	for n > 0 && n < len(idx) && steal[idx[n]] <= steal[idx[n-1]] {
		n++
	}
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}
