package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// blockClock stamps the wall clock every `size` packets, so per-packet
// cost has a distribution (p50/p90/p99 over blocks) without a clock read
// per packet.
type blockClock struct {
	size  int
	n     int
	last  time.Time
	durs  []int64 // ns per completed block
	total int
}

func newBlockClock(size, packets int) *blockClock {
	return &blockClock{size: size, durs: make([]int64, 0, packets/size+1)}
}

func (b *blockClock) start() { b.last = time.Now() }

// tick counts one packet.
func (b *blockClock) tick() {
	b.total++
	b.n++
	if b.n == b.size {
		now := time.Now()
		b.durs = append(b.durs, int64(now.Sub(b.last)))
		b.last = now
		b.n = 0
	}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeapMB forces a collection and reports what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileOf is quantile over unsorted xs.
func quantileOf(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// spreadPct is (max − min) ÷ median, in percent.
func spreadPct(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 || s[len(s)/2] == 0 {
		return 0
	}
	return 100 * (s[len(s)-1] - s[0]) / quantile(s, 0.5)
}
