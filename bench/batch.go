package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"charmtrace"
)

// batch-extract runs the library path in a child process — this binary
// re-executed with batchChildEnv set — so that the CPU and memory it
// reports are the library's and not the harness's. The parent generates the
// traces and writes them to files; the child loads the bytes, says
// "ready", waits for "go", and then runs whole passes over the set
// (ReadTrace → Extract → ComputeMetrics per trace, one worker, default
// Parallelism) until the time is up. Each pass is one measurement window.

const batchChildEnv = "CHARMTRACE_BENCH_BATCH_CHILD"

// batchJob is what the parent hands the child (as JSON in the env var).
type batchJob struct {
	Files   []string `json:"files"`
	Presets []string `json:"presets"`
	Seconds float64  `json:"seconds"`
}

// batchReport is what the child prints when it is done.
type batchReport struct {
	// OpNS[p][i] is the latency of trace i in pass p.
	OpNS    [][]int64 `json:"op_ns"`
	PassCPU []float64 `json:"pass_cpu_ms"` // user+sys CPU of each pass
	HWMkB   float64   `json:"hwm_kb"`
	RSSkB   float64   `json:"rss_kb"`
	Events  []int     `json:"events"`
	// Failures lists checker rejections and answers that changed between
	// passes.
	Failures []string `json:"failures"`
}

func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// answerHash fingerprints a structure's event placement, to detect an
// answer that changes between passes.
func answerHash(s *charmtrace.Structure) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, s.PhaseOf)
	binary.Write(h, binary.LittleEndian, s.Step)
	return h.Sum64()
}

// batchChildMain is the child's whole life. It returns the exit code.
func batchChildMain() int {
	var job batchJob
	if err := json.Unmarshal([]byte(os.Getenv(batchChildEnv)), &job); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	data := make([][]byte, len(job.Files))
	for i, f := range job.Files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 2
		}
		data[i] = b
	}
	fmt.Println("ready")
	if line, _ := bufio.NewReader(os.Stdin).ReadString('\n'); line != "go\n" {
		return 0 // the parent only wanted the set-up timed
	}

	rep := batchReport{Events: make([]int, len(data))}
	analyse := func(i int) (*charmtrace.Trace, *charmtrace.Structure, error) {
		opt := charmtrace.DefaultOptions()
		if job.Presets[i] == "mp" {
			opt = charmtrace.MessagePassingOptions()
		}
		tr, err := charmtrace.ReadTrace(bytes.NewReader(data[i]))
		if err != nil {
			return nil, nil, err
		}
		s, err := charmtrace.Extract(tr, opt)
		if err != nil {
			return nil, nil, err
		}
		charmtrace.ComputeMetrics(s)
		return tr, s, nil
	}
	first := make([]uint64, len(data))
	deadline := time.Now().Add(time.Duration(job.Seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		cpu0 := selfCPUms()
		ns := make([]int64, len(data))
		for i := range data {
			t0 := time.Now()
			_, s, err := analyse(i)
			ns[i] = time.Since(t0).Nanoseconds()
			// Untimed: only a fingerprint of the answer outlives the op, so
			// peak memory is one trace's, not the set's.
			if err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d trace %d: %v", pass, i, err))
				ns[i] = -1
			} else if h := answerHash(s); pass == 0 {
				first[i] = h
			} else if h != first[i] {
				rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d trace %d: answer differs from pass 0", pass, i))
			}
		}
		rep.PassCPU = append(rep.PassCPU, selfCPUms()-cpu0)
		rep.OpNS = append(rep.OpNS, ns)
	}
	rep.HWMkB = statusKB(os.Getpid(), "VmHWM")
	rep.RSSkB = statusKB(os.Getpid(), "VmRSS")
	// One more pass, after the clock and the memory reading, feeds the
	// checker; its answers must again equal pass 0's, so what the checker
	// accepts is what every timed pass returned.
	for i := range data {
		tr, s, err := analyse(i)
		if err != nil {
			continue // already reported by the timed passes
		}
		rep.Events[i] = len(tr.Events)
		if answerHash(s) != first[i] {
			rep.Failures = append(rep.Failures, fmt.Sprintf("check pass trace %d: answer differs from pass 0", i))
		}
		if err := checkStructure(tr, s); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("checker: trace %d: %v", i, err))
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 2
	}
	return 0
}

// batchChild is a started child that has loaded its inputs.
type batchChild struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// setupBatch generates the traces, writes them out and starts a child that
// loads them. This is batch-extract's setup_s.
func (h *harness) setupBatch(ctx context.Context, seed int64, seconds float64, specs []traceSpec) (*batchChild, error) {
	traces, err := buildBatch(seed, specs)
	if err != nil {
		return nil, err
	}
	dir, err := h.tempDir("batch")
	if err != nil {
		return nil, err
	}
	job := batchJob{Seconds: seconds}
	for i, t := range traces {
		f := filepath.Join(dir, fmt.Sprintf("%d.trace", i))
		if err := os.WriteFile(f, t.data, 0o644); err != nil {
			return nil, err
		}
		job.Files = append(job.Files, f)
		job.Presets = append(job.Presets, t.spec.Preset)
	}
	spec, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), batchChildEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &batchChild{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	if line, err := c.stdout.ReadString('\n'); err != nil || line != "ready\n" {
		c.abandon()
		return nil, fmt.Errorf("bench: batch child did not become ready: %q %v", line, err)
	}
	return c, nil
}

// abandon ends a child that was only started to time the set-up.
func (c *batchChild) abandon() {
	c.stdin.Close()
	io.Copy(io.Discard, c.stdout)
	c.cmd.Wait()
}

// run lets the child measure and returns its report.
func (c *batchChild) run() (*batchReport, error) {
	if _, err := io.WriteString(c.stdin, "go\n"); err != nil {
		c.abandon()
		return nil, err
	}
	var rep batchReport
	decErr := json.NewDecoder(c.stdout).Decode(&rep)
	c.stdin.Close()
	io.Copy(io.Discard, c.stdout)
	if err := c.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("bench: batch child: %w", err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("bench: batch child report: %w", decErr)
	}
	return &rep, nil
}
