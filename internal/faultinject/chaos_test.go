package faultinject_test

import (
	"fmt"
	"sync"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/shard"
)

// lcg is a tiny deterministic generator so chaos workloads replay
// bit-for-bit from their seed.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// recoverAll drives the engine's rebuild machinery until every shard is
// up. With the injector disarmed each forced attempt must succeed, so a
// handful of rounds is a hard bound, not a retry loop.
func recoverAll(t *testing.T, e *shard.Engine) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if e.Recover() == 0 {
			return
		}
	}
	t.Fatalf("shards still down after forced recovery: %d (events: %v)",
		e.Recover(), e.FaultEvents())
}

// auditConservation checks the fundamental chaos invariant: every
// accepted entry is either delivered, still queued, or declared lost —
// nothing disappears silently, nothing is delivered twice.
func auditConservation(t *testing.T, e *shard.Engine, accepted map[uint32]bool, delivered []core.Entry) {
	t.Helper()
	seen := make(map[uint32]bool, len(delivered))
	for _, ent := range delivered {
		if seen[ent.ID] {
			t.Fatalf("id %d delivered twice", ent.ID)
		}
		seen[ent.ID] = true
		if !accepted[ent.ID] {
			t.Fatalf("id %d delivered but never accepted", ent.ID)
		}
	}
	queued := e.Snapshot()
	for _, ent := range queued {
		if seen[ent.ID] {
			t.Fatalf("id %d both delivered and still queued", ent.ID)
		}
		if !accepted[ent.ID] {
			t.Fatalf("id %d queued but never accepted", ent.ID)
		}
	}
	lost := e.FaultStats().LostEntries
	got := uint64(len(delivered)) + uint64(len(queued)) + lost
	if got != uint64(len(accepted)) {
		t.Fatalf("conservation violated: accepted %d, delivered %d + queued %d + declared lost %d = %d",
			len(accepted), len(delivered), len(queued), lost, got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("audit-time invariants: %v", err)
	}
}

// drainAll empties the engine, asserting global (rank, FIFO) dequeue
// order on the way out.
func drainAll(t *testing.T, e *shard.Engine) []core.Entry {
	t.Helper()
	var out []core.Entry
	lastRank := uint64(0)
	for {
		ent, ok := e.Dequeue(clock.Time(1 << 60))
		if !ok {
			break
		}
		if ent.Rank < lastRank {
			t.Fatalf("post-recovery drain out of order: rank %d after %d", ent.Rank, lastRank)
		}
		lastRank = ent.Rank
		out = append(out, ent)
	}
	if e.Len() != 0 {
		t.Fatalf("engine reports %d entries after full drain", e.Len())
	}
	return out
}

// TestEngineQuarantineDeterministic storms a sharded engine with induced
// panics on a fixed schedule, single-threaded, and requires exact
// conservation, full shard recovery, clean invariants, and ordered
// post-recovery drain. Every run is bit-for-bit reproducible from the
// plan seed.
func TestEngineQuarantineDeterministic(t *testing.T) {
	for _, every := range []uint64{23, 97, 401} {
		t.Run(fmt.Sprintf("panicEvery=%d", every), func(t *testing.T) {
			inj := faultinject.NewInjector(faultinject.Plan{Seed: 42, PanicEvery: every})
			e := shard.New(4096, 8)
			e.SetFaultHook(inj.ShardHook())

			rng := lcg(7)
			accepted := make(map[uint32]bool)
			var delivered []core.Entry
			nextID := uint32(1)
			for op := 0; op < 20000; op++ {
				switch rng.next() % 4 {
				case 0, 1: // enqueue a fresh ID
					id := nextID
					nextID++
					ent := core.Entry{ID: id, Rank: rng.next() % 1000, SendTime: clock.Time(rng.next() % 64)}
					if err := e.Enqueue(ent); err == nil {
						accepted[id] = true
					}
				case 2: // dequeue
					if ent, ok := e.Dequeue(clock.Time(rng.next() % 128)); ok {
						delivered = append(delivered, ent)
					}
				case 3: // point-dequeue a recent ID
					id := uint32(rng.next()%uint64(nextID)) + 1
					if ent, ok := e.DequeueFlow(id); ok {
						delivered = append(delivered, ent)
					}
				}
			}
			if e.FaultStats().Quarantines == 0 {
				t.Fatalf("fault schedule never fired (panics induced: %d)", inj.Stats().Panics)
			}

			inj.Disarm()
			recoverAll(t, e)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-recovery invariants: %v", err)
			}
			auditConservation(t, e, accepted, delivered)
			drained := drainAll(t, e)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
			total := len(delivered) + len(drained)
			want := len(accepted) - int(e.FaultStats().LostEntries)
			if total != want {
				t.Fatalf("drained+delivered = %d, want %d", total, want)
			}
		})
	}
}

// TestEngineChaosConcurrent is the -race storm: concurrent producers,
// consumers, and point-dequeuers against an engine whose shard sections
// panic and stall on schedule. After the storm the engine must recover
// every shard, satisfy all structural invariants, and account for every
// accepted entry.
func TestEngineChaosConcurrent(t *testing.T) {
	const (
		producers  = 4
		consumers  = 2
		perWorker  = 4000
		capacityN  = 64 * 1024
		shardCount = 8
	)
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 99, PanicEvery: 211, LatencyEvery: 37, LatencyNs: 200})
	e := shard.New(capacityN, shardCount)
	e.SetFaultHook(inj.ShardHook())

	acceptedCh := make([][]uint32, producers)
	deliveredCh := make([][]core.Entry, consumers+1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := lcg(1000 + p)
			var mine []uint32
			for i := 0; i < perWorker; i++ {
				id := uint32(p*perWorker + i + 1)
				ent := core.Entry{ID: id, Rank: rng.next() % 5000, SendTime: clock.Time(rng.next() % 16)}
				if err := e.Enqueue(ent); err == nil {
					mine = append(mine, id)
				}
			}
			acceptedCh[p] = mine
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := lcg(2000 + c)
			var mine []core.Entry
			for i := 0; i < perWorker; i++ {
				if ent, ok := e.Dequeue(clock.Time(rng.next() % 32)); ok {
					mine = append(mine, ent)
				}
			}
			deliveredCh[c] = mine
		}(c)
	}
	wg.Add(1)
	go func() { // point-dequeuer: exercises the degraded wide-lookup path
		defer wg.Done()
		rng := lcg(3000)
		var mine []core.Entry
		for i := 0; i < perWorker; i++ {
			id := uint32(rng.next()%(producers*perWorker)) + 1
			if ent, ok := e.DequeueFlow(id); ok {
				mine = append(mine, ent)
			}
		}
		deliveredCh[consumers] = mine
	}()
	wg.Wait()

	inj.Disarm()
	recoverAll(t, e)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}

	accepted := make(map[uint32]bool)
	for _, ids := range acceptedCh {
		for _, id := range ids {
			accepted[id] = true
		}
	}
	var delivered []core.Entry
	for _, ents := range deliveredCh {
		delivered = append(delivered, ents...)
	}
	auditConservation(t, e, accepted, delivered)
	drainAll(t, e)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	t.Logf("storm: %d accepted, %d delivered mid-storm, faults=%+v, injector=%+v",
		len(accepted), len(delivered), e.FaultStats(), inj.Stats())
}

// TestEngineChaosRangedConcurrent is the banded -race storm: the access
// pattern of the partitioned hierarchy (every worker confined to a
// disjoint ID band, every extraction a DequeueRange over one band)
// driven through scheduled shard panics, quarantine, and rebuild. The
// audit is PER LOGICAL BAND, not whole-engine: no ranged dequeue may
// leak another band's element, and each band's accepted set must be
// fully accounted as delivered + still queued + declared lost.
func TestEngineChaosRangedConcurrent(t *testing.T) {
	for _, backendName := range backend.ShardNames() {
		t.Run(backendName, func(t *testing.T) {
			runEngineChaosRanged(t, backendName)
		})
	}
}

func runEngineChaosRanged(t *testing.T, backendName string) {
	const (
		bands      = 4
		perBand    = 4000
		bandWidth  = 1 << 20 // bands far apart so leakage is unambiguous
		capacityN  = 64 * 1024
		shardCount = 8
	)
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 123, PanicEvery: 173, LatencyEvery: 41, LatencyNs: 200})
	e, err := shard.NewNamed(capacityN, shardCount, backendName)
	if err != nil {
		t.Fatalf("construct %q engine: %v", backendName, err)
	}
	e.SetFaultHook(inj.ShardHook())

	bandLo := func(b int) uint32 { return uint32(b * bandWidth) }
	acceptedCh := make([][]uint32, bands)
	deliveredCh := make([][]core.Entry, bands)
	var wg sync.WaitGroup
	for b := 0; b < bands; b++ {
		wg.Add(1)
		go func(b int) { // producer: enqueues only its own band's IDs
			defer wg.Done()
			rng := lcg(5000 + b)
			var mine []uint32
			for i := 0; i < perBand; i++ {
				id := bandLo(b) + uint32(i)
				ent := core.Entry{ID: id, Rank: rng.next() % 5000, SendTime: clock.Time(rng.next() % 16)}
				if err := e.Enqueue(ent); err == nil {
					mine = append(mine, id)
				}
			}
			acceptedCh[b] = mine
		}(b)
		wg.Add(1)
		go func(b int) { // ranged consumer: extracts only from its band
			defer wg.Done()
			rng := lcg(6000 + b)
			lo, hi := bandLo(b), bandLo(b)+bandWidth-1
			var mine []core.Entry
			for i := 0; i < perBand; i++ {
				if ent, ok := e.DequeueRange(clock.Time(rng.next()%32), lo, hi); ok {
					if ent.ID < lo || ent.ID > hi {
						t.Errorf("band %d ranged dequeue leaked id %d", b, ent.ID)
						return
					}
					mine = append(mine, ent)
				}
			}
			deliveredCh[b] = mine
		}(b)
	}
	wg.Wait()

	inj.Disarm()
	recoverAll(t, e)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}

	// Whole-engine conservation first (the established audit)...
	accepted := make(map[uint32]bool)
	for _, ids := range acceptedCh {
		for _, id := range ids {
			accepted[id] = true
		}
	}
	var delivered []core.Entry
	for _, ents := range deliveredCh {
		delivered = append(delivered, ents...)
	}
	auditConservation(t, e, accepted, delivered)

	// ...then the per-band ledger: ranged drains must empty the engine
	// band by band (every element belongs to exactly one band), each in
	// rank order, and each band's accepted count must decompose into
	// delivered + drained + its share of the declared losses.
	lostTotal := int(e.FaultStats().LostEntries)
	lostSum := 0
	for b := 0; b < bands; b++ {
		lo, hi := bandLo(b), bandLo(b)+bandWidth-1
		drained := 0
		lastRank := uint64(0)
		for {
			ent, ok := e.DequeueRange(clock.Time(1<<60), lo, hi)
			if !ok {
				break
			}
			if ent.ID < lo || ent.ID > hi {
				t.Fatalf("band %d drain leaked id %d", b, ent.ID)
			}
			if ent.Rank < lastRank {
				t.Fatalf("band %d drain out of rank order: %d after %d", b, ent.Rank, lastRank)
			}
			lastRank = ent.Rank
			drained++
		}
		lost := len(acceptedCh[b]) - len(deliveredCh[b]) - drained
		if lost < 0 {
			t.Fatalf("band %d over-delivered: accepted %d, delivered %d, drained %d",
				b, len(acceptedCh[b]), len(deliveredCh[b]), drained)
		}
		lostSum += lost
	}
	if e.Len() != 0 {
		t.Fatalf("engine holds %d entries outside every band", e.Len())
	}
	if lostSum != lostTotal {
		t.Fatalf("per-band losses sum to %d, engine declared %d", lostSum, lostTotal)
	}
	t.Logf("ranged storm %s: %d accepted, %d delivered mid-storm, lost %d, faults=%+v",
		backendName, len(accepted), len(delivered), lostTotal, e.FaultStats())
}

// TestWrapperDeclaredDrops verifies the backend wrapper's bookkeeping:
// every injected enqueue failure is recorded as a declared drop, and the
// inner backend conserves everything else.
func TestWrapperDeclaredDrops(t *testing.T) {
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 5, ErrorEvery: 7, SqueezeEvery: 13})
	inner := shard.New(1024, 4)
	b := faultinject.Wrap(inner, inj)

	rng := lcg(11)
	accepted := 0
	injectedErrs := 0
	for id := uint32(1); id <= 500; id++ {
		err := b.Enqueue(core.Entry{ID: id, Rank: rng.next() % 100, SendTime: 0})
		switch err {
		case nil:
			accepted++
		case faultinject.ErrInjected, core.ErrFull:
			injectedErrs++
		default:
			t.Fatalf("unexpected enqueue error: %v", err)
		}
	}
	drops := b.DeclaredDrops()
	if len(drops) != injectedErrs {
		t.Fatalf("declared drops %d, observed injected failures %d", len(drops), injectedErrs)
	}
	if accepted+injectedErrs != 500 {
		t.Fatalf("accepted %d + dropped %d != 500", accepted, injectedErrs)
	}
	if b.Len() != accepted {
		t.Fatalf("inner backend holds %d, accepted %d", b.Len(), accepted)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if inj.Stats().Injected == 0 || inj.Stats().Squeezes == 0 {
		t.Fatalf("expected both fault classes to fire: %+v", inj.Stats())
	}
}
