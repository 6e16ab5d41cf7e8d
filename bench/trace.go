package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pieo"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/shard"
)

// Tracing is done entirely from this directory: every span is recorded
// around a call INTO a layer's public functions, by a wrapper the
// workload installs between two layers. The untraced pass installs none
// of them, so the end-to-end metrics never pay for a span.

// kind identifies what a span timed. The list ops are shared by the
// `core` and `shard` layers and the scheduler hooks by `sched` and
// `hier`; a tracer knows which layer it is wrapping.
type kind uint8

const (
	kDriver   kind = iota // the whole timed region; self time is the benchmark's own loop
	kCallback             // the benchmark's OnTransmit callback
	kDecode
	kClassify
	kSimRun
	kInject // Sim.InjectOne, called from the benchmark's callback
	kOnArrival
	kNextPacket
	kNextWake
	kEnqueue
	kDequeue
	kDequeueRange
	kDequeueFlow
	kUpdateRank
	kMinSendTime
	kNextWakeAfter
	kContains
	kLen
	nKinds
)

// listOps are the ordered-list operations the Backend wrapper times, in
// the order BENCHMARK.json names them.
var listOps = []struct {
	k    kind
	name string
}{
	{kEnqueue, "enqueue"}, {kDequeue, "dequeue"}, {kDequeueRange, "dequeue_range"},
	{kDequeueFlow, "dequeue_flow"}, {kUpdateRank, "update_rank"}, {kMinSendTime, "min_send_time"},
	{kNextWakeAfter, "next_wake_after"}, {kContains, "contains"}, {kLen, "len"},
}

var schedOps = []struct {
	k    kind
	name string
}{
	{kOnArrival, "on_arrival"}, {kNextPacket, "next_packet"}, {kNextWake, "next_wake"},
}

// rawSpanPackets is how many packets' worth of raw spans each traced
// rep keeps for the Chrome trace file.
const rawSpanPackets = 2048

type spanAgg struct {
	calls int64
	total int64 // ns inside the span, children included
	self  int64 // total minus children minus the calibrated span cost
	empty int64 // calls that returned "nothing" (dequeues, next_packet)
}

type frame struct {
	k      kind
	raw    int32 // index into tracer.raw, -1 when not recorded
	start  time.Time
	child  int64 // ns covered by child spans
	nchild int64
}

// rawSpan is one recorded span: name, start, end, the span that caused
// it, and the request (packet Seq, or op index on raw lists) it served.
type rawSpan struct {
	k          kind
	parent     int32
	start, end int64 // ns since the tracer's epoch
	req        uint64
}

// spanCost is the calibrated price of one empty span: `inside` lands in
// the span's own duration, `outside` in its parent's.
type spanCost struct{ inside, outside int64 }

// tracer aggregates spans online and keeps the raw spans of the first
// rawSpanPackets packets. It is single-threaded: contended_sharded gives
// each worker its own.
type tracer struct {
	listLayer  string // "core" or "shard"
	schedLayer string // "sched" or "hier"
	cost       spanCost

	epoch time.Time
	stack [16]frame
	depth int
	agg   [nKinds]spanAgg
	spans int64
	// final and finalSpans are agg and spans as the timed region ended.
	final      [nKinds]spanAgg
	finalSpans int64

	req      uint64 // request id stamped on spans as they end
	pkts     int    // packets completed, to bound raw recording
	raw      []rawSpan
	eligViol int64 // entries a list released with SendTime > now
}

func newTracer(listLayer, schedLayer string, cost spanCost) *tracer {
	return &tracer{
		listLayer: listLayer, schedLayer: schedLayer, cost: cost,
		epoch: time.Now(),
		// ~12 spans per packet on the deepest path.
		raw: make([]rawSpan, 0, rawSpanPackets*16),
	}
}

// begin and end are nil-safe so the workloads' own call sites cost one
// predictable branch when tracing is off.
func (t *tracer) begin(k kind) {
	if t != nil {
		t.push(k)
	}
}

func (t *tracer) end() {
	if t != nil {
		t.pop(false)
	}
}

func (t *tracer) push(k kind) {
	f := &t.stack[t.depth]
	t.depth++
	f.k, f.child, f.nchild, f.raw = k, 0, 0, -1
	if t.pkts < rawSpanPackets && len(t.raw) < cap(t.raw) {
		f.raw = int32(len(t.raw))
		parent := int32(-1)
		if t.depth > 1 {
			parent = t.stack[t.depth-2].raw
		}
		t.raw = append(t.raw, rawSpan{k: k, parent: parent})
	}
	f.start = time.Now()
}

func (t *tracer) pop(empty bool) {
	now := time.Now()
	t.depth--
	f := &t.stack[t.depth]
	dur := int64(now.Sub(f.start))
	a := &t.agg[f.k]
	a.calls++
	a.total += dur
	a.self += dur - f.child - f.nchild*t.cost.outside - t.cost.inside
	if empty {
		a.empty++
	}
	t.spans++
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += dur
		p.nchild++
	}
	if f.raw >= 0 {
		r := &t.raw[f.raw]
		r.start, r.end, r.req = int64(f.start.Sub(t.epoch)), int64(now.Sub(t.epoch)), t.req
	}
}

// beginRun opens the root span of the timed region, dropping whatever
// set-up and warm-up recorded: only the timed region is attributed.
func (t *tracer) beginRun() {
	if t == nil {
		return
	}
	t.agg, t.spans, t.pkts, t.raw = [nKinds]spanAgg{}, 0, 0, t.raw[:0]
	t.epoch = time.Now()
	t.push(kDriver)
}

// endRun closes the root span and freezes the totals, so the checks
// that follow may go through the wrappers without being counted.
func (t *tracer) endRun() {
	if t == nil {
		return
	}
	t.pop(false)
	t.final, t.finalSpans = t.agg, t.spans
}

// packetDone marks one packet handed to its consumer.
func (t *tracer) packetDone() {
	if t != nil {
		t.pkts++
	}
}

func (t *tracer) setReq(id uint64) {
	if t != nil {
		t.req = id
	}
}

// checkElig records a contract violation: a list released an entry
// whose send_time lies after the instant it was asked about.
func (t *tracer) checkElig(e core.Entry, ok bool, now clock.Time) {
	if ok && e.SendTime > now {
		t.eligViol++
	}
}

// calibrateSpanCost measures the empty span: the loop's time per
// iteration is the whole price, the recorded duration the inside part.
func calibrateSpanCost() spanCost {
	const n = 200000
	var best spanCost
	for round := 0; round < 5; round++ {
		t := newTracer("core", "sched", spanCost{})
		t.pkts = rawSpanPackets // no raw recording, as in the bulk of a run
		t.push(kDriver)
		start := time.Now()
		for i := 0; i < n; i++ {
			t.push(kLen)
			t.pop(false)
		}
		whole := int64(time.Since(start)) / n
		t.pop(false)
		inside := t.agg[kLen].total / n
		// The quietest round is the one least disturbed by the host.
		if round == 0 || whole < best.inside+best.outside {
			best = spanCost{inside: inside, outside: whole - inside}
		}
	}
	return best
}

func (t *tracer) kindName(k kind) string {
	switch k {
	case kDriver:
		return "driver.run"
	case kCallback:
		return "driver.on_transmit"
	case kDecode:
		return "wire.decode"
	case kClassify:
		return "wire.classify"
	case kSimRun:
		return "netsim.run"
	case kInject:
		return "netsim.inject_one"
	}
	for _, op := range schedOps {
		if op.k == k {
			return t.schedLayer + "." + op.name
		}
	}
	for _, op := range listOps {
		if op.k == k {
			return t.listLayer + "." + op.name
		}
	}
	return fmt.Sprintf("kind%d", k)
}

// writeChromeTrace writes the raw spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto), one thread per tracer.
func writeChromeTrace(path string, tracers []*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for tid, t := range tracers {
		for i, r := range t.raw {
			events = append(events, event{
				Name: t.kindName(r.k), Ph: "X",
				Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
				Pid: 1, Tid: tid,
				Args: map[string]any{"span": i, "parent": r.parent, "req": r.req},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- ordered-list wrappers ---

// commonCaps is what both wrapped list types — backend.CoreList and
// shard.Engine — implement beyond Backend. The wrappers must expose
// exactly the capabilities of what they wrap (trace_test.go), or the
// type assertions in sched, hier, netsim and backend would take a
// different path under tracing.
type commonCaps interface {
	backend.Backend
	backend.Peeker
	backend.RankUpdater
	backend.EligIndexed
	backend.InvariantChecker
	backend.HardwareModeled
	backend.Evictor
	backend.Batcher
}

// tracedList times the ordered-list operations the workloads' hot
// paths use and forwards the rest untimed.
type tracedList struct {
	in commonCaps
	t  *tracer
}

func (w *tracedList) Enqueue(e core.Entry) error {
	w.t.push(kEnqueue)
	err := w.in.Enqueue(e)
	w.t.pop(false)
	return err
}

func (w *tracedList) Dequeue(now clock.Time) (core.Entry, bool) {
	w.t.push(kDequeue)
	e, ok := w.in.Dequeue(now)
	w.t.pop(!ok)
	w.t.checkElig(e, ok, now)
	return e, ok
}

func (w *tracedList) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	w.t.push(kDequeueRange)
	e, ok := w.in.DequeueRange(now, lo, hi)
	w.t.pop(!ok)
	w.t.checkElig(e, ok, now)
	return e, ok
}

func (w *tracedList) DequeueFlow(id uint32) (core.Entry, bool) {
	w.t.push(kDequeueFlow)
	e, ok := w.in.DequeueFlow(id)
	w.t.pop(!ok)
	return e, ok
}

func (w *tracedList) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	w.t.push(kUpdateRank)
	ok := w.in.UpdateRank(id, rank, sendTime)
	w.t.pop(!ok)
	return ok
}

func (w *tracedList) MinSendTime() (clock.Time, bool) {
	w.t.push(kMinSendTime)
	at, ok := w.in.MinSendTime()
	w.t.pop(!ok)
	return at, ok
}

func (w *tracedList) NextWakeAfter(now clock.Time) clock.Time {
	w.t.push(kNextWakeAfter)
	at := w.in.NextWakeAfter(now)
	w.t.pop(at == clock.Never)
	return at
}

func (w *tracedList) Contains(id uint32) bool {
	w.t.push(kContains)
	ok := w.in.Contains(id)
	w.t.pop(!ok)
	return ok
}

func (w *tracedList) Len() int {
	w.t.push(kLen)
	n := w.in.Len()
	w.t.pop(false)
	return n
}

func (w *tracedList) Snapshot() []core.Entry                 { return w.in.Snapshot() }
func (w *tracedList) Stats() backend.Stats                   { return w.in.Stats() }
func (w *tracedList) CheckInvariants() error                 { return w.in.CheckInvariants() }
func (w *tracedList) EligIndexActive() bool                  { return w.in.EligIndexActive() }
func (w *tracedList) DisableEligIndex()                      { w.in.DisableEligIndex() }
func (w *tracedList) HardwareStats() core.Stats              { return w.in.HardwareStats() }
func (w *tracedList) PeekMax() (core.Entry, bool)            { return w.in.PeekMax() }
func (w *tracedList) EvictMax() (core.Entry, bool)           { return w.in.EvictMax() }
func (w *tracedList) Peek(now clock.Time) (core.Entry, bool) { return w.in.Peek(now) }
func (w *tracedList) PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	return w.in.PeekRange(now, lo, hi)
}
func (w *tracedList) EnqueueBatch(es []core.Entry) (int, error) { return w.in.EnqueueBatch(es) }
func (w *tracedList) DequeueUpTo(now clock.Time, k int, out []core.Entry) []core.Entry {
	return w.in.DequeueUpTo(now, k, out)
}

// tracedCore wraps backend.CoreList: the common capabilities plus the
// rank-interval queries only a totally ordered list has.
type tracedCore struct {
	tracedList
	rr backend.RankRanger
}

func (w *tracedCore) MinRankAtLeast(lo uint64) (core.Entry, bool) { return w.rr.MinRankAtLeast(lo) }
func (w *tracedCore) DequeueRankRange(lo, hi uint64) (core.Entry, bool) {
	return w.rr.DequeueRankRange(lo, hi)
}

// tracedShard wraps the sharded engine: the common capabilities plus
// its combining rings and health report.
type tracedShard struct {
	tracedList
	eng *shard.Engine
}

func (w *tracedShard) SetCombining(on bool)                   { w.eng.SetCombining(on) }
func (w *tracedShard) CombiningEnabled() bool                 { return w.eng.CombiningEnabled() }
func (w *tracedShard) CombiningStats() backend.CombiningStats { return w.eng.CombiningStats() }
func (w *tracedShard) Health() backend.HealthReport           { return w.eng.Health() }

// newCoreList builds the `core` backend through the facade's registry
// and, when tracing, wraps it.
func newCoreList(capacity int, t *tracer) pieo.Backend {
	b, err := pieo.NewBackend("core", capacity)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	if t == nil {
		return b
	}
	return wrapCore(b, t)
}

func wrapCore(b pieo.Backend, t *tracer) *tracedCore {
	return &tracedCore{tracedList: tracedList{in: b.(commonCaps), t: t}, rr: b.(backend.RankRanger)}
}

func wrapShard(e *shard.Engine, t *tracer) *tracedShard {
	return &tracedShard{tracedList: tracedList{in: e, t: t}, eng: e}
}

// --- scheduler wrapper ---

// simScheduler is what sched.Scheduler and hier.Hierarchy both offer
// netsim: the two required hooks plus the three optional interfaces
// netsim type-asserts for.
type simScheduler interface {
	netsim.Scheduler
	netsim.WakeHinter
	netsim.BackendReporter
	netsim.FaultReporter
}

type tracedSched struct {
	in simScheduler
	t  *tracer
}

func (w *tracedSched) OnArrival(now clock.Time, p flowq.Packet) {
	w.t.push(kOnArrival)
	w.in.OnArrival(now, p)
	w.t.pop(false)
}

func (w *tracedSched) NextPacket(now clock.Time) (flowq.Packet, bool) {
	w.t.push(kNextPacket)
	p, ok := w.in.NextPacket(now)
	if ok {
		w.t.req = p.Seq
	}
	w.t.pop(!ok)
	return p, ok
}

func (w *tracedSched) NextWake(now clock.Time) (clock.Time, bool) {
	w.t.push(kNextWake)
	at, ok := w.in.NextWake(now)
	w.t.pop(!ok)
	return at, ok
}

func (w *tracedSched) BackendStats() backend.Stats    { return w.in.BackendStats() }
func (w *tracedSched) FaultStats() backend.FaultStats { return w.in.FaultStats() }
