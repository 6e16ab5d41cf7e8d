package faultinject_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/shard"
)

// The engine under faults: the fault wrapper's error and squeeze schedules
// over the one-lock engine behind SyncList, with a panicking layer between
// the two. The engine is one lock around one core list, so it has nothing
// to quarantine and declares no losses: every accepted arrival must be
// delivered or still queued, exactly.

// inducedPanic is the payload of the panicking layer.
type inducedPanic uint64

// panicking passes operations to the backend it embeds and panics on
// every Nth mutation while armed, before the mutation reaches it, so the
// caller's operation is cut short with the backend untouched.
type panicking struct {
	backend.Backend
	every  uint64
	n      atomic.Uint64
	armed  atomic.Bool
	panics atomic.Uint64
}

func newPanicking(b backend.Backend, every uint64) *panicking {
	p := &panicking{Backend: b, every: every}
	p.armed.Store(true)
	return p
}

func (p *panicking) tick() {
	if n := p.n.Add(1); p.armed.Load() && n%p.every == 0 {
		p.panics.Add(1)
		panic(inducedPanic(n))
	}
}

func (p *panicking) Enqueue(e core.Entry) error {
	p.tick()
	return p.Backend.Enqueue(e)
}

func (p *panicking) Dequeue(now clock.Time) (core.Entry, bool) {
	p.tick()
	return p.Backend.Dequeue(now)
}

func (p *panicking) DequeueFlow(id uint32) (core.Entry, bool) {
	p.tick()
	return p.Backend.DequeueFlow(id)
}

func (p *panicking) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	p.tick()
	return p.Backend.DequeueRange(now, lo, hi)
}

// survive runs op and reports whether an induced panic cut it short;
// any other panic propagates.
func survive(op func()) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(inducedPanic); !ok {
				panic(r)
			}
			panicked = true
		}
	}()
	op()
	return false
}

// refusedByFault reports whether err is one the fault wrapper injects or
// the list's own refusal when full.
func refusedByFault(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) || errors.Is(err, core.ErrFull)
}

// TestEngineQuarantineDeterministic drives the engine single-threaded
// under a fixed schedule of injected errors, squeezes and panics, and
// requires exact conservation, clean invariants, an ordered drain, and a
// bit-for-bit replay from the same plan. (The K-lock engine quarantined
// a shard on each panic; the name is kept from then.)
func TestEngineQuarantineDeterministic(t *testing.T) {
	for _, every := range []uint64{23, 97, 401} {
		t.Run(fmt.Sprintf("panicEvery=%d", every), func(t *testing.T) {
			first := runEngineFaults(t, every)
			if again := runEngineFaults(t, every); !slices.Equal(first, again) {
				t.Fatal("a second run of the same plan delivered a different sequence")
			}
		})
	}
}

// runEngineFaults runs one deterministic fault run and returns every
// delivery in order, the final drain included.
func runEngineFaults(t *testing.T, every uint64) []core.Entry {
	t.Helper()
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 42, ErrorEvery: 31, SqueezeEvery: 53})
	p := newPanicking(shard.New(4096, 8), every)
	b := faultinject.Wrap(p, inj)

	rng := lcg(7)
	accepted := make(map[uint32]bool)
	var delivered []core.Entry
	nextID := uint32(1)
	for op := 0; op < 20000; op++ {
		var (
			ent core.Entry
			ok  bool
		)
		switch rng.next() % 4 {
		case 0, 1: // enqueue a fresh ID
			id := nextID
			nextID++
			arrival := core.Entry{ID: id, Rank: rng.next() % 1000, SendTime: clock.Time(rng.next() % 64)}
			var err error
			if survive(func() { err = b.Enqueue(arrival) }) {
				continue
			}
			if err == nil {
				accepted[id] = true
			} else if !refusedByFault(err) {
				t.Fatalf("enqueue %d: %v", id, err)
			}
			continue
		case 2: // dequeue
			now := clock.Time(rng.next() % 128)
			survive(func() { ent, ok = b.Dequeue(now) })
		case 3: // point-dequeue a recent ID
			id := uint32(rng.next()%uint64(nextID)) + 1
			survive(func() { ent, ok = b.DequeueFlow(id) })
		}
		if ok {
			delivered = append(delivered, ent)
		}
	}
	if st := inj.Stats(); p.panics.Load() == 0 || st.Injected == 0 || st.Squeezes == 0 {
		t.Fatalf("a fault class never fired: panics %d, injector %+v", p.panics.Load(), st)
	}
	for _, id := range b.DeclaredDrops() {
		if accepted[id] {
			t.Fatalf("id %d declared dropped but accepted", id)
		}
	}

	inj.Disarm()
	p.armed.Store(false)
	auditConservation(t, b, accepted, delivered)
	drained := drainAll(t, b)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	if got := len(delivered) + len(drained); got != len(accepted) {
		t.Fatalf("drained+delivered = %d, want %d", got, len(accepted))
	}
	return append(delivered, drained...)
}

// TestEngineChaosConcurrent is the -race storm: concurrent producers,
// consumers and a point-dequeuer against one engine behind the fault
// schedules. After the storm the engine must satisfy all structural
// invariants and account for every accepted entry.
func TestEngineChaosConcurrent(t *testing.T) {
	const (
		producers  = 4
		consumers  = 2
		perWorker  = 4000
		capacityN  = 64 * 1024
		shardCount = 8
	)
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 99, ErrorEvery: 37, SqueezeEvery: 61})
	p := newPanicking(shard.New(capacityN, shardCount), 211)
	b := faultinject.Wrap(p, inj)

	acceptedCh := make([][]uint32, producers)
	deliveredCh := make([][]core.Entry, consumers+1)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := lcg(1000 + w)
			var mine []uint32
			for i := 0; i < perWorker; i++ {
				id := uint32(w*perWorker + i + 1)
				ent := core.Entry{ID: id, Rank: rng.next() % 5000, SendTime: clock.Time(rng.next() % 16)}
				var err error
				if survive(func() { err = b.Enqueue(ent) }) {
					continue
				}
				if err == nil {
					mine = append(mine, id)
				} else if !refusedByFault(err) {
					t.Errorf("enqueue %d: %v", id, err)
					return
				}
			}
			acceptedCh[w] = mine
		}(w)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := lcg(2000 + c)
			var mine []core.Entry
			for i := 0; i < perWorker; i++ {
				var (
					ent core.Entry
					ok  bool
				)
				now := clock.Time(rng.next() % 32)
				if !survive(func() { ent, ok = b.Dequeue(now) }) && ok {
					mine = append(mine, ent)
				}
			}
			deliveredCh[c] = mine
		}(c)
	}
	wg.Add(1)
	go func() { // point-dequeuer
		defer wg.Done()
		rng := lcg(3000)
		var mine []core.Entry
		for i := 0; i < perWorker; i++ {
			var (
				ent core.Entry
				ok  bool
			)
			id := uint32(rng.next()%(producers*perWorker)) + 1
			if !survive(func() { ent, ok = b.DequeueFlow(id) }) && ok {
				mine = append(mine, ent)
			}
		}
		deliveredCh[consumers] = mine
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	inj.Disarm()
	p.armed.Store(false)
	if p.panics.Load() == 0 || inj.Stats().Injected == 0 {
		t.Fatalf("a fault class never fired: panics %d, injector %+v", p.panics.Load(), inj.Stats())
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
	auditConservation(t, b, accepted, delivered)
	drainAll(t, b)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	t.Logf("storm: %d accepted, %d delivered mid-storm, panics %d, injector %+v",
		len(accepted), len(delivered), p.panics.Load(), inj.Stats())
}

// TestEngineChaosRangedConcurrent is the banded -race storm: the access
// pattern of the partitioned hierarchy (every worker confined to a
// disjoint ID band, every extraction a DequeueRange over one band)
// driven through the fault schedules. The audit is per band: no ranged
// dequeue may leak another band's element, and each band's accepted set
// must be exactly its deliveries plus its drain.
func TestEngineChaosRangedConcurrent(t *testing.T) {
	t.Run("core", runEngineChaosRanged)
}

func runEngineChaosRanged(t *testing.T) {
	const (
		bands      = 4
		perBand    = 4000
		bandWidth  = 1 << 20 // bands far apart so leakage is unambiguous
		capacityN  = 64 * 1024
		shardCount = 8
	)
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 123, ErrorEvery: 41, SqueezeEvery: 67})
	p := newPanicking(shard.New(capacityN, shardCount), 173)
	b := faultinject.Wrap(p, inj)

	bandLo := func(band int) uint32 { return uint32(band * bandWidth) }
	acceptedCh := make([][]uint32, bands)
	deliveredCh := make([][]core.Entry, bands)
	var wg sync.WaitGroup
	for band := 0; band < bands; band++ {
		wg.Add(1)
		go func(band int) { // producer: enqueues only its own band's IDs
			defer wg.Done()
			rng := lcg(5000 + band)
			var mine []uint32
			for i := 0; i < perBand; i++ {
				id := bandLo(band) + uint32(i)
				ent := core.Entry{ID: id, Rank: rng.next() % 5000, SendTime: clock.Time(rng.next() % 16)}
				var err error
				if survive(func() { err = b.Enqueue(ent) }) {
					continue
				}
				if err == nil {
					mine = append(mine, id)
				} else if !refusedByFault(err) {
					t.Errorf("enqueue %d: %v", id, err)
					return
				}
			}
			acceptedCh[band] = mine
		}(band)
		wg.Add(1)
		go func(band int) { // ranged consumer: extracts only from its band
			defer wg.Done()
			rng := lcg(6000 + band)
			lo, hi := bandLo(band), bandLo(band)+bandWidth-1
			var mine []core.Entry
			for i := 0; i < perBand; i++ {
				var (
					ent core.Entry
					ok  bool
				)
				now := clock.Time(rng.next() % 32)
				if survive(func() { ent, ok = b.DequeueRange(now, lo, hi) }) || !ok {
					continue
				}
				if ent.ID < lo || ent.ID > hi {
					t.Errorf("band %d ranged dequeue leaked id %d", band, ent.ID)
					return
				}
				mine = append(mine, ent)
			}
			deliveredCh[band] = mine
		}(band)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	inj.Disarm()
	p.armed.Store(false)
	if p.panics.Load() == 0 || inj.Stats().Injected == 0 {
		t.Fatalf("a fault class never fired: panics %d, injector %+v", p.panics.Load(), inj.Stats())
	}
	// Whole-list conservation first...
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
	auditConservation(t, b, accepted, delivered)

	// ...then the per-band ledger: ranged drains must empty the list band
	// by band, each in rank order, and each band's accepted count must be
	// exactly its deliveries plus its drain.
	for band := 0; band < bands; band++ {
		lo, hi := bandLo(band), bandLo(band)+bandWidth-1
		drained := 0
		lastRank := uint64(0)
		for {
			ent, ok := b.DequeueRange(clock.Time(1<<60), lo, hi)
			if !ok {
				break
			}
			if ent.ID < lo || ent.ID > hi {
				t.Fatalf("band %d drain leaked id %d", band, ent.ID)
			}
			if ent.Rank < lastRank {
				t.Fatalf("band %d drain out of rank order: %d after %d", band, ent.Rank, lastRank)
			}
			lastRank = ent.Rank
			drained++
		}
		if got := len(deliveredCh[band]) + drained; got != len(acceptedCh[band]) {
			t.Fatalf("band %d: accepted %d, delivered %d + drained %d = %d",
				band, len(acceptedCh[band]), len(deliveredCh[band]), drained, got)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("list holds %d entries outside every band", b.Len())
	}
	t.Logf("ranged storm: %d accepted, %d delivered mid-storm, panics %d, injector %+v",
		len(accepted), len(delivered), p.panics.Load(), inj.Stats())
}
