package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

// timedWorker wraps a shard.Worker and records every Run call while its
// recorder is enabled. It forwards the optional Pipeliner, JobCanceler
// and CapacityReporter facets with the values the wrapped worker would
// give, so the coordinator dispatches exactly as it would without the
// wrapper. (The coordinator's stray-result sink is unexported and cannot
// be forwarded; strays only arise when a connection is presumed lost.)
type timedWorker struct {
	shard.Worker
	rec *recorder
}

func (w *timedWorker) Run(job *shard.Job) ([]sim.Partial, error) {
	if !w.rec.enabled() {
		return w.Worker.Run(job)
	}
	j := *job
	send := w.rec.now()
	parts, err := w.Worker.Run(job)
	ret := w.rec.now()
	w.rec.addJob(jobRecord{
		Worker:    w.Name(),
		Job:       j,
		FP:        shard.RunFingerprint(j.Params, j.Options),
		Send:      send,
		Ret:       ret,
		Parts:     parts,
		Cancelled: err == shard.ErrJobCancelled,
		Failed:    err != nil && err != shard.ErrJobCancelled,
	})
	return parts, err
}

// PipelineDepth reports the wrapped worker's depth; one (no pipelining)
// when it has none.
func (w *timedWorker) PipelineDepth() int {
	if p, ok := w.Worker.(shard.Pipeliner); ok {
		return p.PipelineDepth()
	}
	return 1
}

// CancelJob forwards to the wrapped worker; without the facet the job
// simply runs to completion, as it would unwrapped.
func (w *timedWorker) CancelJob(id int) {
	if c, ok := w.Worker.(shard.JobCanceler); ok {
		c.CancelJob(id)
	}
}

// Capacity reports the wrapped worker's capacity; 0 (one slot) when it
// advertises none.
func (w *timedWorker) Capacity() int {
	if c, ok := w.Worker.(shard.CapacityReporter); ok {
		return c.Capacity()
	}
	return 0
}

// wrap puts every worker behind the timing wrapper when rec is non-nil.
func wrap(ws []shard.Worker, rec *recorder) []shard.Worker {
	if rec == nil {
		return ws
	}
	out := make([]shard.Worker, len(ws))
	for i, w := range ws {
		out[i] = &timedWorker{Worker: w, rec: rec}
	}
	return out
}

// localPIDs extracts the process ids of shard.SpawnLocal workers from
// their names ("proc:<pid>").
func localPIDs(ws []shard.Worker) []int {
	var pids []int
	for _, w := range ws {
		if pid, err := strconv.Atoi(strings.TrimPrefix(w.Name(), "proc:")); err == nil {
			pids = append(pids, pid)
		}
	}
	return pids
}

// tcpWorkerEnv turns the benchmark binary into a TCP shard worker; its
// value is the shared handshake token.
const tcpWorkerEnv = "PERFBENCH_TCP_WORKER"

// tcpHeartbeat is the heartbeat interval both sides of a TCP link
// advertise, short enough that pings flow during every run.
const tcpHeartbeat = 500 * time.Millisecond

// serveTCPWorker is the TCP worker process: it listens on a loopback
// port, prints the bound address on stdout, and serves authenticated
// shard connections until its stdin closes.
func serveTCPWorker(token string) error {
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	nc := shard.NetConfig{Token: token, HeartbeatInterval: tcpHeartbeat}
	return shard.ListenAndServeNetStop("127.0.0.1:0", nc, func(a net.Addr) {
		fmt.Println(a.String())
	}, stop)
}

// tcpProc is one TCP worker process and the connection dialled to it.
type tcpProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	worker shard.Worker
}

// spawnTCP re-executes this binary n times as TCP workers pinned to one
// core each, and dials every one with a token-authenticated handshake.
func spawnTCP(n int) ([]*tcpProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	token := hex.EncodeToString(buf)
	var procs []*tcpProc
	for i := 0; i < n; i++ {
		p, err := startTCP(exe, token)
		if err != nil {
			stopTCP(procs)
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

func startTCP(exe, token string) (*tcpProc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), tcpWorkerEnv+"="+token, "GOMAXPROCS=1")
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
		return nil, fmt.Errorf("start tcp worker: %w", err)
	}
	p := &tcpProc{cmd: cmd, stdin: stdin}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("tcp worker address: %w", err)
	}
	w, err := shard.DialNet(strings.TrimSpace(addr), shard.NetConfig{Token: token, HeartbeatInterval: tcpHeartbeat})
	if err != nil {
		p.stop()
		return nil, err
	}
	p.worker = w
	return p, nil
}

// stop closes the connection and the worker's stdin, then waits for the
// process to exit.
func (p *tcpProc) stop() {
	if p.worker != nil {
		p.worker.Close()
	}
	p.stdin.Close()
	if err := p.cmd.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: tcp worker:", err)
	}
}

func stopTCP(ps []*tcpProc) {
	for _, p := range ps {
		p.stop()
	}
}

// peakRSSMB sums the peak resident set (VmHWM) of this process and the
// given worker processes, in MiB.
func peakRSSMB(pids []int) float64 {
	total := hwmKB("/proc/self/status")
	for _, pid := range pids {
		total += hwmKB(fmt.Sprintf("/proc/%d/status", pid))
	}
	return float64(total) / 1024
}

func hwmKB(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.Atoi(f[1])
			return kb
		}
	}
	return 0
}

// stealSeconds reads the CPU time the hypervisor took from this machine
// since boot (the steal column of /proc/stat), in seconds; 0 where the
// kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}
