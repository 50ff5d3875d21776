package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The benchmark runs on virtual machines that share their host, and now and
// then the hypervisor runs another guest on their CPUs. The guest kernel
// counts that time as steal (the eighth field of the cpu line of
// /proc/stat). While it lasts every request in flight stalls, so a slice of
// the window measured through it reads the neighbour, not the program. The
// measured window is therefore cut into slices, the steal of each is read,
// the window runs until its quiet slices add up to the run length, and the
// end-to-end metrics are taken over the quiet slices.

const (
	sliceLen = time.Second
	// quietSteal is the largest share of a slice's CPU time that may have
	// been stolen for the slice to count as quiet.
	quietSteal = 0.02
	// maxStretch bounds a window, as a multiple of the run length, when the
	// hypervisor keeps taking CPU time.
	maxStretch = 2
	// userHZ is the unit of /proc/stat: jiffies per second.
	userHZ = 100
)

// stealMeter reads the machine's steal count at every slice boundary of a
// window and sets full once the window has enough quiet time.
type stealMeter struct {
	// target is the quiet time the window needs, limit its longest length.
	target, limit time.Duration
	full          atomic.Bool
	stop, done    chan struct{}
	at            []time.Time // slice boundaries
	steal         []float64   // cumulative steal, in jiffies, at each boundary
}

func startStealMeter(target time.Duration) *stealMeter {
	m := &stealMeter{target: target, limit: maxStretch * target,
		stop: make(chan struct{}), done: make(chan struct{})}
	m.read()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(min(sliceLen, target))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.read()
				if m.quietLen() >= m.target || m.at[len(m.at)-1].Sub(m.at[0]) >= m.limit {
					m.full.Store(true)
				}
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func (m *stealMeter) read() {
	m.at = append(m.at, time.Now())
	m.steal = append(m.steal, stealJiffies())
}

// end stops the meter; call it once every sample of the window completed.
func (m *stealMeter) end() {
	close(m.stop)
	<-m.done
	m.read()
}

// stealJiffies is the machine's cumulative steal count, 0 where the kernel
// does not report one (then every slice counts as quiet).
func stealJiffies() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}

// stolen is the share of slice k's CPU time the hypervisor took.
func (m *stealMeter) stolen(k int) float64 {
	capacity := m.at[k+1].Sub(m.at[k]).Seconds() * userHZ * float64(runtime.NumCPU())
	return ratio(m.steal[k+1]-m.steal[k], capacity)
}

// quietLen is the total length of the quiet slices read so far.
func (m *stealMeter) quietLen() time.Duration {
	var d time.Duration
	for k := 0; k+1 < len(m.at); k++ {
		if m.stolen(k) <= quietSteal {
			d += m.at[k+1].Sub(m.at[k])
		}
	}
	return d
}

// stealFrac is the share of the window's CPU time the hypervisor took.
func (m *stealMeter) stealFrac() float64 {
	n := len(m.at) - 1
	capacity := m.at[n].Sub(m.at[0]).Seconds() * userHZ * float64(runtime.NumCPU())
	return ratio(m.steal[n]-m.steal[0], capacity)
}

// quiet returns the samples that completed in the window's quiet slices
// and the total length of those slices. When the window hit its limit with
// less quiet time than its target, the least-stolen slices that make up
// the target are used instead.
func (m *stealMeter) quiet(samples []sample) ([]sample, time.Duration) {
	n := len(m.at) - 1
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return m.stolen(order[i]) < m.stolen(order[j]) })
	keep := make([]bool, n)
	var kept time.Duration
	for _, k := range order {
		if m.stolen(k) > quietSteal && kept >= m.target {
			break
		}
		keep[k] = true
		kept += m.at[k+1].Sub(m.at[k])
	}
	var out []sample
	for _, s := range samples {
		// The slice s completed in: the last boundary at or before it.
		k := sort.Search(n+1, func(i int) bool { return m.at[i].After(s.at) }) - 1
		if k >= 0 && k < n && keep[k] {
			out = append(out, s)
		}
	}
	return out, kept
}
