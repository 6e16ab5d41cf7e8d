package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"pieo"
)

// holdSpan is the hold model's rank increment range: a dequeued element
// is replaced by one at rank + U[0, holdSpan).
const holdSpan = 1 << 20

// --- list_hold ---

const (
	holdCapacity = 1 << 19
	holdResident = 1 << 18
)

// holdModel is the classic hold model over any Backend: dequeue the
// smallest, enqueue a new ID at the dequeued rank plus a random
// increment. Everything is eligible, so it measures the rank-ordered
// core alone. It runs on `core` for the measurement and on `ref` for
// the replay check.
type holdModel struct {
	be     pieo.Backend
	r      *rng
	nextID uint32

	enqErrs, misses, rankInversions int64
	lastRank                        uint64
	digest                          uint64
}

func newHoldModel(be pieo.Backend, seed uint64, resident int) *holdModel {
	m := &holdModel{be: be, r: newRng(seed, 3), digest: digestSeed}
	// Prefill from the model's own stationary distribution — density
	// falling linearly to zero at holdSpan — so cost does not drift
	// while the list settles.
	for i := 0; i < resident; i++ {
		rank := uint64(holdSpan * (1 - math.Sqrt(1-m.r.float())))
		m.enqueue(rank)
	}
	return m
}

func (m *holdModel) enqueue(rank uint64) {
	if err := m.be.Enqueue(pieo.Entry{ID: m.nextID, Rank: rank, SendTime: pieo.Always}); err != nil {
		m.enqErrs++
	}
	m.nextID++
}

// pair is one packet: a dequeue and the enqueue that replaces it.
func (m *holdModel) pair() (pieo.Entry, bool) {
	e, ok := m.be.Dequeue(0)
	if !ok {
		m.misses++
		return e, false
	}
	if e.Rank < m.lastRank {
		m.rankInversions++
	}
	m.lastRank = e.Rank
	m.digest = mix(mix(m.digest, uint64(e.ID)), e.Rank)
	m.enqueue(e.Rank + m.r.next()%holdSpan)
	return e, true
}

type holdInstance struct {
	p    params
	tr   *tracer
	list pieo.Backend
	m    *holdModel
	bc   *blockClock

	hwStart pieo.ListStats
}

func newHoldInstance(p params) *holdInstance {
	tr := p.tracer(0)
	list := newCoreList(holdCapacity, tr)
	return &holdInstance{p: p, tr: tr, list: list, m: newHoldModel(list, p.seed, holdResident)}
}

func (h *holdInstance) warmUp() {
	for i := 0; i < h.p.warm; i++ {
		h.m.pair()
	}
}

func (h *holdInstance) run(clocks []*blockClock) {
	h.bc = clocks[0]
	h.hwStart = hwStats(h.list)
	h.tr.beginRun()
	h.bc.start()
	for i := 0; i < h.p.packets; i++ {
		h.tr.setReq(uint64(i))
		h.m.pair()
		h.bc.tick()
		h.tr.packetDone()
	}
	h.tr.endRun()
}

func (h *holdInstance) finish() (outcome, error) {
	m := h.m
	if m.rankInversions != 0 {
		return outcome{}, fmt.Errorf("dequeued ranks decreased %d times", m.rankInversions)
	}
	if got := h.list.Len(); got != holdResident-int(m.enqErrs) || m.misses != 0 {
		return outcome{}, fmt.Errorf("conservation: %d resident after %d misses and %d enqueue errors, want %d",
			got, m.misses, m.enqErrs, holdResident)
	}
	if err := h.list.(pieo.InvariantChecker).CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("core invariants: %w", err)
	}
	out := outcome{
		packets:   int64(h.bc.total),
		attempted: 2 * int64(h.p.packets),
		failed:    m.enqErrs + m.misses,
		digest:    m.digest, hasDigest: true,
		rateErr: math.NaN(),
		layer:   map[string]float64{},
	}
	hwCounters(h.hwStart, hwStats(h.list), out.layer)
	return out, nil
}

// --- paced_sparse ---

const (
	pacedFlows    = 100_000
	pacedLineGbps = 100.0
)

// pacedModel is the Carousel loop over any Backend that answers
// NextWakeAfter: n token-bucket-paced flows whose rank and send_time
// are their next release instant. Each round drains everything due,
// asks when the next release lands, and jumps there.
type pacedModel struct {
	be   pieo.Backend
	ix   wakeIndex
	gap  []pieo.Time // per flow: size*8/rate
	next []pieo.Time // per flow: the release instant now queued
	now  pieo.Time

	dispatched                        int64
	enqErrs, early, inexact, wakeless int64
	dequeues, misses, wakes           int64
	digest                            uint64
}

// wakeIndex is the one EligIndexed method the loop needs; the `ref`
// backend has no index, so its replay scans (see checks.go).
type wakeIndex interface {
	NextWakeAfter(now pieo.Time) pieo.Time
}

func newPacedModel(be pieo.Backend, ix wakeIndex, seed uint64, flows int) *pacedModel {
	m := &pacedModel{be: be, ix: ix, digest: digestSeed,
		gap: make([]pieo.Time, flows), next: make([]pieo.Time, flows)}
	r := newRng(seed, 4)
	for i := 0; i < flows; i++ {
		// Aggregate paced rate is the line rate; per-flow rates spread
		// 0.5x..1.5x around an equal share, sizes 64/1500 half and half.
		rate := pacedLineGbps / float64(flows) * (0.5 + r.float())
		size := 64.0
		if r.next()&1 == 1 {
			size = 1500
		}
		m.gap[i] = pieo.Time(math.Round(size * 8 / rate))
		// Phases spread over one gap, so releases land one at a time.
		m.next[i] = 1 + pieo.Time(r.next()%uint64(m.gap[i]))
		m.arm(uint32(i))
	}
	return m
}

func (m *pacedModel) arm(f uint32) {
	at := m.next[f]
	if err := m.be.Enqueue(pieo.Entry{ID: f, Rank: uint64(at), SendTime: at}); err != nil {
		m.enqErrs++
	}
}

// round runs one drain-and-jump round; onDispatch sees every released
// entry. It reports false when nothing is left to wait for.
func (m *pacedModel) round(onDispatch func(pieo.Entry)) bool {
	for {
		m.dequeues++
		e, ok := m.be.Dequeue(m.now)
		if !ok {
			m.misses++
			break
		}
		// Exact release: the clock only ever jumps to a promised
		// instant, so nothing may come out early or late.
		switch {
		case e.SendTime > m.now:
			m.early++
		case e.SendTime != m.now || e.SendTime != m.next[e.ID]:
			m.inexact++
		}
		m.dispatched++
		m.digest = mix(mix(m.digest, uint64(e.ID)), uint64(m.now))
		m.next[e.ID] = m.now + m.gap[e.ID]
		m.arm(e.ID)
		onDispatch(e)
	}
	m.wakes++
	wake := m.ix.NextWakeAfter(m.now)
	if wake == pieo.Never {
		m.wakeless++
		return false
	}
	m.now = wake
	return true
}

func (m *pacedModel) runFor(dispatches int64, onDispatch func(pieo.Entry)) {
	target := m.dispatched + dispatches
	for m.dispatched < target && m.round(onDispatch) {
	}
}

type pacedInstance struct {
	p    params
	tr   *tracer
	list pieo.Backend
	m    *pacedModel
	bc   *blockClock

	hwStart                     pieo.ListStats
	startDeq, startMiss, startW int64
}

func newPacedInstance(p params) *pacedInstance {
	tr := p.tracer(0)
	list := newCoreList(pacedFlows, tr)
	return &pacedInstance{p: p, tr: tr, list: list,
		m: newPacedModel(list, list.(pieo.EligIndexed), p.seed, pacedFlows)}
}

func (pi *pacedInstance) warmUp() { pi.m.runFor(int64(pi.p.warm), func(pieo.Entry) {}) }

func (pi *pacedInstance) run(clocks []*blockClock) {
	pi.bc = clocks[0]
	m := pi.m
	pi.hwStart = hwStats(pi.list)
	pi.startDeq, pi.startMiss, pi.startW = m.dequeues, m.misses, m.wakes
	pi.tr.beginRun()
	pi.bc.start()
	m.runFor(int64(pi.p.packets), func(pieo.Entry) {
		pi.tr.setReq(uint64(pi.bc.total))
		pi.bc.tick()
		pi.tr.packetDone()
	})
	pi.tr.endRun()
}

func (pi *pacedInstance) finish() (outcome, error) {
	m := pi.m
	if m.early != 0 || m.inexact != 0 || m.wakeless != 0 {
		return outcome{}, fmt.Errorf("release instants: %d early, %d not at the promised instant, %d rounds with no wake",
			m.early, m.inexact, m.wakeless)
	}
	if got := pi.list.Len(); got != pacedFlows-int(m.enqErrs) {
		return outcome{}, fmt.Errorf("conservation: %d resident after %d enqueue errors, want %d", got, m.enqErrs, pacedFlows)
	}
	if err := pi.list.(pieo.InvariantChecker).CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("core invariants: %w", err)
	}
	dequeues := m.dequeues - pi.startDeq
	out := outcome{
		packets:   int64(pi.bc.total),
		attempted: dequeues + int64(pi.bc.total) + (m.wakes - pi.startW),
		failed:    m.enqErrs,
		digest:    m.digest, hasDigest: true,
		// Every release was checked to land exactly on its configured
		// gap, so the achieved-vs-configured gap error is zero.
		rateErr: 0,
		layer:   map[string]float64{},
	}
	hwCounters(pi.hwStart, hwStats(pi.list), out.layer)
	return out, nil
}

// --- contended_sharded ---

const (
	shardCapacity = 1 << 19
	shardCount    = 8
	shardPrefill  = 4096
)

// holdWorker is one goroutine's half of the contended hold model.
type holdWorker struct {
	be     pieo.Backend // the engine, or this worker's traced view of it
	tr     *tracer
	r      *rng
	nextID uint32 // this worker's private ID sequence, stride = workers
	stride uint32

	enqErrs, retries, enqRetries, inversions int64
	lastRank                                 uint64
	idIn, idOut, rankIn, rankOut             uint64   // content sums, for conservation
	_                                        [64]byte // keep two workers' counters off one cache line
}

func (w *holdWorker) pair() {
	var e pieo.Entry
	for {
		var ok bool
		if e, ok = w.be.Dequeue(0); ok {
			break
		}
		// An empty race, not a failure: another worker holds the
		// element this one would have taken.
		w.retries++
		runtime.Gosched()
	}
	// A serial PIEO under the hold model never hands a caller a rank
	// below its previous one; a concurrent one may.
	if e.Rank < w.lastRank {
		w.inversions++
	}
	w.lastRank = e.Rank
	w.idOut += uint64(e.ID)
	w.rankOut += e.Rank
	rank := e.Rank + w.r.next()%holdSpan
	if err := w.be.Enqueue(pieo.Entry{ID: w.nextID, Rank: rank, SendTime: pieo.Always}); err != nil {
		w.enqErrs++
	} else {
		w.idIn += uint64(w.nextID)
		w.rankIn += rank
	}
	w.nextID += w.stride
}

type contended struct {
	p       params
	eng     *pieo.ShardedList
	workers []*holdWorker

	prefillIDs, prefillRanks uint64
	wallNs, cpuNs            int64
	startStats               pieo.BackendStats
	startComb                pieo.CombiningStats
}

func newContended(p params) *contended {
	c := &contended{p: p, eng: pieo.NewShardedList(shardCapacity, shardCount)}
	r := newRng(p.seed, 5)
	for i := 0; i < shardPrefill; i++ {
		rank := uint64(holdSpan * (1 - math.Sqrt(1-r.float())))
		if err := c.eng.Enqueue(pieo.Entry{ID: uint32(i), Rank: rank, SendTime: pieo.Always}); err != nil {
			panic(fmt.Sprintf("bench: prefill: %v", err))
		}
		c.prefillIDs += uint64(i)
		c.prefillRanks += rank
	}
	const workers = 2
	for w := 0; w < workers; w++ {
		tr := p.tracer(w)
		var be pieo.Backend = c.eng
		if tr != nil {
			be = wrapShard(c.eng, tr)
		}
		c.workers = append(c.workers, &holdWorker{
			be: be, tr: tr, r: newRng(p.seed, 6+uint64(w)),
			nextID: shardPrefill + uint32(w), stride: workers,
		})
	}
	return c
}

// each runs fn on every worker's own goroutine and waits for all.
func (c *contended) each(fn func(i int, w *holdWorker)) {
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, w)
		}()
	}
	wg.Wait()
}

func (c *contended) warmUp() {
	c.each(func(_ int, w *holdWorker) {
		for i := 0; i < c.p.warm; i++ {
			w.pair()
		}
	})
}

func (c *contended) run(clocks []*blockClock) {
	c.startStats = c.eng.Stats()
	c.startComb = c.eng.CombiningStats()
	cpu0, t0 := cpuNow(), time.Now()
	c.each(func(i int, w *holdWorker) {
		bc := clocks[i]
		w.tr.beginRun()
		bc.start()
		for k := 0; k < c.p.packets; k++ {
			w.tr.setReq(uint64(k))
			w.pair()
			bc.tick()
			w.tr.packetDone()
		}
		w.tr.endRun()
	})
	c.wallNs, c.cpuNs = int64(time.Since(t0)), cpuNow()-cpu0
}

func (c *contended) finish() (outcome, error) {
	var enqErrs, retries, inversions int64
	idIn, rankIn := c.prefillIDs, c.prefillRanks
	var idOut, rankOut uint64
	for _, w := range c.workers {
		enqErrs += w.enqErrs
		retries += w.retries
		inversions += w.inversions
		idIn += w.idIn
		rankIn += w.rankIn
		idOut += w.idOut
		rankOut += w.rankOut
	}
	// Conservation by content: what went in is what came out plus what
	// is still resident, ID for ID and rank for rank.
	resident := c.eng.Snapshot()
	for _, e := range resident {
		idOut += uint64(e.ID)
		rankOut += e.Rank
	}
	fs := c.eng.FaultStats()
	if len(resident) != shardPrefill-int(enqErrs) || c.eng.Len() != len(resident) || idIn != idOut || rankIn != rankOut {
		return outcome{}, fmt.Errorf("conservation: %d resident (Len %d) after %d enqueue errors, want %d; id sums %d/%d, rank sums %d/%d",
			len(resident), c.eng.Len(), enqErrs, shardPrefill, idIn, idOut, rankIn, rankOut)
	}
	if fs.LostEntries != 0 || fs.Quarantines != 0 {
		return outcome{}, fmt.Errorf("engine lost %d entries in %d quarantines", fs.LostEntries, fs.Quarantines)
	}
	if err := c.eng.CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("shard invariants: %w", err)
	}

	packets := int64(len(c.workers)) * int64(c.p.packets)
	st, comb := c.eng.Stats(), c.eng.CombiningStats()
	ops := float64(2 * packets)
	out := outcome{
		packets:   packets,
		attempted: 2 * packets,
		failed:    enqErrs + int64(fs.LostEntries),
		rateErr:   math.NaN(),
		layer: map[string]float64{
			"shard.dequeue.retry_share": float64(retries) / float64(packets+retries),
			"shard.enqueue.retry_share": 0, // Enqueue has no empty race: it succeeds or fails
			"shard.ring_ops_share":      float64(st.RingOps-c.startStats.RingOps) / ops,
			"shard.combined_ops_share":  float64(st.CombinedOps-c.startStats.CombinedOps) / ops,
			"shard.combiner_drains":     float64(comb.CombinerDrains - c.startComb.CombinerDrains),
			"shard.inversions_per_mpkt": 1e6 * float64(inversions) / float64(packets),
			"shard.cpu_busy_share":      float64(c.cpuNs) / (float64(c.wallNs) * float64(len(c.workers))),
			"shard.lost_entries":        float64(fs.LostEntries),
			"shard.quarantines":         float64(fs.Quarantines),
		},
	}
	return out, nil
}
