package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// harness owns everything one benchmark invocation leaves on disk or in the
// process table: the built binaries, the scratch directory for data dirs
// and trace files, and every child process. close undoes all of it except
// the files worth reading afterwards (results, Chrome traces, child stderr).
type harness struct {
	root    string // module root (holds go.mod and BENCHMARK.json)
	out     string // bench/out: results, traces, logs, binaries
	scratch string // bench/out/run-*: removed by close

	charmd  string // built binary paths
	gateway string
	buildS  float64

	procs []*proc
}

// findRoot walks up from the working directory to the module root, so the
// benchmark runs the same from the checkout root (go run ./bench) and from
// its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no directory above the working directory holds BENCHMARK.json and go.mod")
		}
		dir = parent
	}
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(filepath.Join(out, "bin"), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, out: out, scratch: scratch}, nil
}

// close stops every child still running and removes the scratch directory.
func (h *harness) close() {
	for _, p := range h.procs {
		p.stop()
	}
	os.RemoveAll(h.scratch)
}

// build compiles the two served binaries from the checkout's source. The
// go tool's own cache makes a repeat build a sub-second no-op; its time is
// reported as setup.build_s and is not part of setup_s.
func (h *harness) build(ctx context.Context) error {
	if h.charmd != "" {
		return nil
	}
	start := time.Now()
	bin := filepath.Join(h.out, "bin")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/charmd", "./cmd/charm-gateway")
	cmd.Dir = h.root
	if outb, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build: %v\n%s", err, outb)
	}
	h.charmd = filepath.Join(bin, "charmd")
	h.gateway = filepath.Join(bin, "charm-gateway")
	h.buildS = time.Since(start).Seconds()
	return nil
}

func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.scratch, prefix+"-")
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so a collision is possible in
// principle; the child then fails to start and the run reports it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one child process of the program under test.
type proc struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
}

// start launches a binary with its stderr and stdout kept in
// bench/out/<label>.log, and waits for GET /readyz to answer 200.
func (h *harness) start(ctx context.Context, label, bin string, port int, args ...string) (*proc, error) {
	logPath := filepath.Join(h.out, label+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("bench: start %s: %w", label, err)
	}
	p := &proc{url: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, exited: make(chan struct{}), log: lf}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	h.procs = append(h.procs, p)
	if err := p.waitReady(ctx); err != nil {
		p.stop()
		return nil, fmt.Errorf("bench: %s: %w (see %s)", label, err, logPath)
	}
	return p, nil
}

func (p *proc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return errors.New("exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("not ready within 15s")
}

// stop terminates the child (SIGTERM, then SIGKILL after two seconds) and
// returns once it has been reaped. Safe to call twice.
func (p *proc) stop() {
	select {
	case <-p.exited:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(2 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
	p.log.Close()
}

// cpuMS is the child's user+system CPU so far, from /proc/<pid>/stat
// (fields 14 and 15, in USER_HZ ticks — 100 per second on Linux).
func (p *proc) cpuMS() float64 { return procCPUms(p.cmd.Process.Pid) }

func procCPUms(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may hold spaces; fields count
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// statusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

func (p *proc) peakRSSMB() float64 { return statusKB(p.cmd.Process.Pid, "VmHWM") / 1024 }
func (p *proc) rssMB() float64     { return statusKB(p.cmd.Process.Pid, "VmRSS") / 1024 }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
