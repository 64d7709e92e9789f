package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// failedMs stands for the latency of a request that failed, was shed or
// answered wrongly: it sorts above every real latency, so such a request
// misses any latency limit.
var failedMs = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// finite replaces +Inf (a failed sample that landed on a reported
// percentile) by a large finite value JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 1e12
	}
	return x
}

// selfCPU returns the CPU time (user + system, all threads) this process
// has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time (user + system, all threads) of process pid
// from /proc/<pid>/stat, whose utime and stime are in clock ticks of
// 1/100 s on Linux.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rssKB reads the resident set (VmRSS) of pid in KiB.
func rssKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmRSS:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				return strconv.ParseInt(fs[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// rssSampler records the peak resident set of one process while it runs.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int64
}

// sampleRSS polls pid's resident set every 10ms until the returned
// sampler's finish is called.
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	if kb, err := rssKB(pid); err == nil {
		s.peak = kb
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if kb, err := rssKB(pid); err == nil && kb > s.peak {
					s.peak = kb
				}
			}
		}
	}()
	return s
}

// finish stops sampling, takes one last sample and returns the peak in MB.
func (s *rssSampler) finish(pid int) float64 {
	close(s.stop)
	s.done.Wait()
	if kb, err := rssKB(pid); err == nil && kb > s.peak {
		s.peak = kb
	}
	return float64(s.peak) * 1024 / 1e6
}
