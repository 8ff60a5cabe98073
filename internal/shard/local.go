package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// workerEnv is the environment variable that turns a process into a
// shard worker: any main that calls MaybeWorker first thing becomes
// spawnable by SpawnLocal.
const workerEnv = "HERALD_SHARD_WORKER"

// MaybeWorker checks whether this process was spawned as a local shard
// worker (HERALD_SHARD_WORKER set) and, if so, serves the shard protocol on
// stdin/stdout until the coordinator closes the pipe, then exits. Call
// it at the top of main() in any binary that spawns local workers;
// it returns immediately in ordinary processes.
func MaybeWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := serveConn(newTransport(stdio{})); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// stdio adapts the process's stdin/stdout into one stream.
type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

// processWorker is a sibling process spawned by SpawnLocal, driven
// through its stdio pipes.
type processWorker struct {
	*remoteWorker
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// Close shuts the worker process down by closing its stdin (the
// worker's job loop exits on EOF) and waiting for it; a process that
// does not exit cleanly is killed.
func (w *processWorker) Close() error {
	w.stdin.Close()
	w.remoteWorker.Close()
	if err := w.cmd.Wait(); err != nil {
		_ = w.cmd.Process.Kill()
		return err
	}
	return nil
}

// Kill terminates the worker process immediately. It exists for
// fault-injection tests.
func (w *processWorker) Kill() error {
	return w.cmd.Process.Kill()
}

// SpawnLocal starts n copies of the current executable as
// single-threaded shard worker processes (the executable's main must
// call MaybeWorker); n < 1 spawns one per core. Each worker runs its
// jobs with Workers=1, so n processes occupy n cores; close every
// returned worker when done.
func SpawnLocal(n int) ([]Worker, error) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard: cannot locate executable: %w", err)
	}
	workers := make([]Worker, 0, n)
	fail := func(err error) ([]Worker, error) {
		for _, w := range workers {
			w.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("shard: spawn worker: %w", err))
		}
		t := newTransport(struct {
			io.Reader
			io.Writer
		}{stdout, stdin})
		workers = append(workers, &processWorker{
			remoteWorker: newRemoteWorker(fmt.Sprintf("proc:%d", cmd.Process.Pid), t, 1),
			cmd:          cmd,
			stdin:        stdin,
		})
	}
	return workers, nil
}
