package pieo

import "pieo/internal/shard"

// SyncList is a lock-guarded PIEO list for callers that enqueue from
// multiple goroutines (e.g. per-connection producers feeding one
// transmit scheduler): one mutex around one paper-exact list. The
// hardware design — and the single-threaded List — processes one
// operation per four cycles anyway, so a single lock mirrors the real
// serialization point rather than hiding it. When the lock itself
// becomes the bottleneck, run one list per core with flows pinned to a
// list by the classifier's hash; partitioning one list over several
// locks was measured slower (DESIGN.md, "Why there is no concurrent
// engine").
//
// Every operation takes the lock, the batch methods for the whole
// batch, so SyncList is linearizable and answers exactly as one List of
// the same capacity. It is the same type as ShardedList.
type SyncList = shard.Engine

// NewSyncList creates a concurrency-safe PIEO list with capacity n over
// the paper-exact list.
func NewSyncList(n int) *SyncList { return shard.New(n, 0) }
