// The seq-aware shard-backend contract: the per-shard operation set the
// concurrent engine (internal/shard) actually drives, factored out of
// *core.List so ANY ordered-list organization — the paper-exact sublist
// structure or a future design — can sit under
// the tournament, the quarantine/salvage state machine, and the
// next-eligible index without touching any of them.
//
// The contract differs from Backend in three ways, all forced by what a
// sharded engine needs from its partitions:
//
//   - Seq stamping. The engine owns ONE global FIFO sequence and stamps
//     it into every insert (EnqueueSeq) and re-rank (UpdateRankSeq), so
//     equal-rank elements on different shards still dequeue in true
//     arrival order. A shard backend must place equal-rank elements by
//     the STAMPED sequence, not by arrival order at the shard — a
//     producer draws its sequence before it takes the shard lock.
//   - Below-seq dequeues. The tournament peeks every contending shard
//     and extracts from the winner; DequeueBelowSeq fuses both into one
//     scan (extract only when the head's rank is strictly below the
//     runner-up bound, report it as a peek otherwise), and the returned
//     sequence breaks cross-shard equal-rank ties.
//   - Salvage/rebuild. Quarantine dumps a failing shard's contents WITH
//     their sequence numbers (SnapshotWithSeq) and later replays them
//     into a fresh instance via EnqueueSeq, so a rebuilt shard preserves
//     global FIFO order bit-for-bit. Stats() must report the core.Stats
//     datapath counters so the engine can carry them across incarnations.
//
// Every query must be side-effect free (the engine publishes lock-free
// summaries computed from MinRank/MinSendTime and calls them from read
// paths), and peek outcomes must charge no stats.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// ShardBackend is the contract one shard of the concurrent engine
// programs against. *core.List implements it natively; other
// organizations would adapt to it.
type ShardBackend interface {
	// EnqueueSeq inserts e with the engine-stamped FIFO sequence. Error
	// precedence matches core.List: ErrFull before ErrDuplicate.
	EnqueueSeq(e core.Entry, seq uint64) error
	// UpdateRankSeq atomically re-ranks id, restamping its FIFO position
	// with seq. It reports false when id is not queued.
	UpdateRankSeq(id uint32, rank uint64, sendTime clock.Time, seq uint64) bool
	// Dequeue extracts the smallest-(rank, seq) element eligible at now.
	Dequeue(now clock.Time) (core.Entry, bool)
	// DequeueRange is Dequeue restricted to IDs in [lo, hi] (§4.3).
	DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
	// DequeueFlow extracts id regardless of eligibility.
	DequeueFlow(id uint32) (core.Entry, bool)
	// DequeueBelowSeq locates the smallest-(rank, seq) eligible element
	// in one scan, extracts it only when its rank is strictly below
	// limit, and otherwise leaves it in place as a peek result (limit 0
	// is a pure peek). eligible reports whether the element exists (e and
	// seq valid); taken whether it was extracted. Peek outcomes must
	// charge no stats.
	DequeueBelowSeq(now clock.Time, limit uint64) (e core.Entry, seq uint64, eligible, taken bool)
	// DequeueRangeBelowSeq is DequeueBelowSeq restricted to IDs in
	// [lo, hi].
	DequeueRangeBelowSeq(now clock.Time, lo, hi uint32, limit uint64) (e core.Entry, seq uint64, eligible, taken bool)
	// MinRank is the shard summary the tournament prunes on: a lower
	// bound on the smallest queued rank, exact for exact backends, O(1).
	MinRank() (uint64, bool)
	// MinSendTime returns the exact smallest send_time across queued
	// elements.
	MinSendTime() (clock.Time, bool)
	// MaxRankEntrySeq returns the largest-(rank, seq) element — the
	// push-out victim cross-shard eviction compares (newest among equal
	// maximal ranks).
	MaxRankEntrySeq() (core.Entry, uint64, bool)
	// Contains reports whether id is currently queued.
	Contains(id uint32) bool
	// Len returns the number of queued elements.
	Len() int
	// Snapshot returns the queued entries in the backend's dequeue order.
	Snapshot() []core.Entry
	// SnapshotWithSeq is the quarantine salvage dump: every queued entry
	// with its stamped sequence, replayable via EnqueueSeq.
	SnapshotWithSeq() ([]core.Entry, []uint64)
	// Stats returns the accumulated core.Stats datapath counters. The
	// engine derives its operation counts from them (an UpdateRankSeq
	// must charge one FlowDequeue plus one Enqueue, like core.List) and
	// carries them across quarantine incarnations.
	Stats() core.Stats
	// CheckInvariants validates the backend's internal structure.
	CheckInvariants() error
}

// ShardConfig shapes one shard. Capacity is the hard bound every shard
// accepts up to (hash partitioning has no balance guarantee — any one
// shard may briefly hold everything); it is a bound, not a size to
// allocate. The expected steady-state occupancy is ~Capacity/K, which
// backends shape themselves for (core: the sublist geometry), growing
// transparently past it.
type ShardConfig struct {
	Capacity          int
	ExpectedOccupancy int
}

// ShardFactory constructs one shard backend; the engine calls it K times
// at construction and once per quarantine rebuild.
type ShardFactory func(cfg ShardConfig) ShardBackend

// --- Shard-backend registry ---
//
// Mirrors the Backend registry so engine construction can be
// parameterized by name (shard.NewNamed) without linking package identities
// into every consumer.

var (
	shardRegMu    sync.RWMutex
	shardRegistry = map[string]ShardFactory{}
)

// RegisterShard binds name to a shard-backend factory. It panics on
// duplicates: two packages claiming one name is a wiring bug.
func RegisterShard(name string, factory ShardFactory) {
	shardRegMu.Lock()
	defer shardRegMu.Unlock()
	if _, dup := shardRegistry[name]; dup {
		panic(fmt.Sprintf("backend: shard backend %q registered twice", name))
	}
	shardRegistry[name] = factory
}

// ShardFactoryFor returns the factory registered under name.
func ShardFactoryFor(name string) (ShardFactory, error) {
	shardRegMu.RLock()
	factory := shardRegistry[name]
	shardRegMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("backend: unknown shard backend %q (have %v)", name, ShardNames())
	}
	return factory, nil
}

// NewShard constructs the shard backend registered under name.
func NewShard(name string, cfg ShardConfig) (ShardBackend, error) {
	factory, err := ShardFactoryFor(name)
	if err != nil {
		return nil, err
	}
	return factory(cfg), nil
}

// ShardNames returns the registered shard-backend names, sorted.
func ShardNames() []string {
	shardRegMu.RLock()
	defer shardRegMu.RUnlock()
	names := make([]string, 0, len(shardRegistry))
	for name := range shardRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// *core.List satisfies the contract natively — the adapter is the
// identity, so the engine running on "core" is bit-for-bit the welded
// implementation it replaced.
var _ ShardBackend = (*core.List)(nil)
