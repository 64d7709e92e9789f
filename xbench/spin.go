package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// On a shared VM an idle vCPU halts, and waking it costs a trip through the
// host scheduler. Under other tenants' load that trip added up to 1.5ms to
// every serve-mix request and moved the median request by half from one
// run to the next, while CPU time per query stayed put. While a run
// measures, a helper process therefore keeps every CPU busy with a thread
// at the lowest priority (nice 19): any runnable thread of the benchmark or
// of xqd preempts it at once, and no CPU ever halts. This is what booting
// with idle=poll does, from user space. The helper's CPU time is its own;
// no metric counts it.

// spinFlag makes the benchmark binary run as that helper.
const spinFlag = "-spin"

// spin runs one lowest-priority busy thread per CPU, reports "ready" on
// standard output once every thread has lowered its priority, and never
// returns.
func spin() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	ready := make(chan error)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			ready <- syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 19)
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			fmt.Fprintln(os.Stderr, "xbench: lowering the spinner's priority:", err)
			os.Exit(1)
		}
	}
	fmt.Println("ready")
	select {}
}

// spinner is a running helper process started by startSpinner.
type spinner struct{ cmd *exec.Cmd }

// startSpinner starts the helper and returns once its threads spin at the
// lowest priority.
func startSpinner() (*spinner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, spinFlag)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the idle spinner: %w", err)
	}
	s := &spinner{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(out).ReadString('\n')
		line <- l
	}()
	select {
	case l := <-line:
		if l == "ready\n" {
			return s, nil
		}
	case <-time.After(10 * time.Second):
	}
	s.stop()
	return nil, errors.New("the idle spinner did not start")
}

// stop kills the helper and waits for it to end.
func (s *spinner) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}
