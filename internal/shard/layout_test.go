package shard

import (
	"reflect"
	"testing"
	"unsafe"
)

// The mechanical-sympathy contract: hot atomics — words one core writes
// per-operation while another core reads them lock-free — must never
// share a cache line with any other field, or every write becomes a
// coherence miss on the reader's side (false sharing). These tests pin
// the struct layouts so a reordered or added field can't silently
// reintroduce sharing that a benchmark would only catch at real core
// parallelism.
//
// The criterion is alignment-aware but conservative: Go guarantees
// 8-byte alignment for heap objects containing 64-bit atomics, not
// 64-byte alignment, so two fields are only accepted as line-disjoint
// when they land on distinct 64-byte lines for EVERY 8-aligned base
// address the allocator could pick.

const lineSize = 64

// mayShareLine reports whether byte spans [aStart, aEnd] and
// [bStart, bEnd] (inclusive, struct-relative) can fall on a common
// 64-byte line under any 8-aligned base address.
func mayShareLine(aStart, aEnd, bStart, bEnd uintptr) bool {
	for base := uintptr(0); base < lineSize; base += 8 {
		if (base+aEnd)/lineSize >= (base+bStart)/lineSize &&
			(base+bEnd)/lineSize >= (base+aStart)/lineSize {
			return true
		}
	}
	return false
}

// assertOwnLines fails if any field named in hot can share a cache line
// with ANY other non-padding field of typ (including another hot field).
func assertOwnLines(t *testing.T, typ reflect.Type, hot ...string) {
	t.Helper()
	type span struct {
		name       string
		start, end uintptr // inclusive byte span within the struct
	}
	var fields []span
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue // padding
		}
		fields = append(fields, span{f.Name, f.Offset, f.Offset + f.Type.Size() - 1})
	}
	byName := map[string]span{}
	for _, f := range fields {
		byName[f.name] = f
	}
	for _, h := range hot {
		hs, ok := byName[h]
		if !ok {
			t.Fatalf("%s: hot field %q not found (renamed without updating the layout test?)", typ, h)
		}
		for _, f := range fields {
			if f.name == h {
				continue
			}
			if mayShareLine(hs.start, hs.end, f.start, f.end) {
				t.Errorf("%s: hot field %s [%d,%d] may share a cache line with %s [%d,%d]",
					typ, h, hs.start, hs.end, f.name, f.start, f.end)
			}
		}
	}
}

func TestEngineHotFieldLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout contract is specified for 64-bit platforms")
	}
	// size and seq: every core adds on every op. nextElig: loaded by
	// every consumer per dequeue while eligVer is added by every
	// producer per insert — the pair must additionally not share with
	// each other, which the pairwise check covers.
	assertOwnLines(t, reflect.TypeOf(Engine{}), "size", "seq", "nextElig", "eligVer")
}

func TestShardHotFieldLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout contract is specified for 64-bit platforms")
	}
	// minSend is read lock-free by remote tournaments; downFlag is read
	// lock-free by every routing check. Both must stay off the lines the
	// lock holder dirties (mu, resident, quarantine bookkeeping).
	assertOwnLines(t, reflect.TypeOf(shard{}), "minSend", "downFlag")
}

func TestSummaryRankLayout(t *testing.T) {
	if got := unsafe.Sizeof(summaryRank{}); got != lineSize {
		t.Fatalf("summaryRank must be exactly one cache line (stride of the padded minRanks array): got %d bytes", got)
	}
	if off := unsafe.Offsetof(summaryRank{}.v); off != 0 {
		t.Fatalf("summaryRank.v must sit at offset 0: got %d", off)
	}
}
