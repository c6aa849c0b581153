package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostCPU is a reading of the host's CPU time counters (/proc/stat, in
// clock ticks): steal is time the hypervisor ran something else while
// this machine's CPUs wanted to run. A rising steal share shows a noisy
// neighbour, which lowers throughput and raises tail latency on every
// workload alike.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() (hostCPU, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}, false
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h, true
}

// stealMeter starts measuring the host's steal share; the returned
// function records the share since then in res's notes.
func stealMeter() func(res *result) {
	start, ok := readHostCPU()
	return func(res *result) {
		end, ok2 := readHostCPU()
		if ok && ok2 && end.total > start.total {
			res.notes["host_steal_share"] = float64(end.steal-start.steal) / float64(end.total-start.total)
		}
	}
}

// stealMax is the highest host steal share a measurement window may
// have and still count. A window in which the hypervisor took the CPUs
// away for more than 1 % of the time measures the neighbours, not the
// program: one 10 ms preemption at 4000 requests/s queues 40 of them,
// enough to set that window's p99.
const stealMax = 0.01

// stealSampler reads the host's CPU counters at every window boundary of
// a phase, so each window's steal share is known.
type stealSampler struct {
	stop  chan struct{}
	done  chan struct{}
	reads []hostCPU
	ok    bool
}

// startSteal begins sampling; call it right when the phase starts.
func startSteal(win time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h, ok := readHostCPU()
	s.reads, s.ok = append(s.reads, h), ok
	go func() {
		defer close(s.done)
		t := time.NewTicker(win)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if h, ok := readHostCPU(); ok {
					s.reads = append(s.reads, h)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns each window's steal share (nil when
// the host does not report steal).
func (s *stealSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	if !s.ok {
		return nil
	}
	shares := make([]float64, 0, len(s.reads))
	for i := 1; i < len(s.reads); i++ {
		a, b := s.reads[i-1], s.reads[i]
		share := 0.0
		if b.total > a.total {
			share = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
		shares = append(shares, share)
	}
	return shares
}

// quietWindows reports which of n windows to count: those whose steal
// share is at most stealMax, as long as at least a third of them (and
// three) are. Otherwise it counts that many windows, the ones with the
// least steal, so a run during a steal episode still reports the program
// as it ran when the host left it the most CPU. Windows past the last
// reading count as quiet.
func quietWindows(steal []float64, n int) []bool {
	need := min(n, max(3, (n+2)/3))
	share := func(w int) float64 {
		if w < len(steal) {
			return steal[w]
		}
		return 0
	}
	keep := make([]bool, n)
	quiet := 0
	for w := range keep {
		keep[w] = share(w) <= stealMax
		if keep[w] {
			quiet++
		}
	}
	if quiet >= need {
		return keep
	}
	order := make([]int, n)
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(i, j int) bool { return share(order[i]) < share(order[j]) })
	for _, w := range order[:need] {
		keep[w] = true
	}
	return keep
}
