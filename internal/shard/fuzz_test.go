package shard_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/refmodel/conform"
	"pieo/internal/shard"
)

// FuzzShardEngine runs fuzzer-chosen conformance programs on the sharded
// engine. The first byte picks a shard count from 1 to 8, which the
// engine must ignore; the rest is the program. Run with `go test -fuzz=FuzzShardEngine ./internal/shard` for
// open-ended fuzzing; under plain `go test` the seed corpus runs as a
// regression test.
func FuzzShardEngine(f *testing.F) {
	sh := conform.Shape{Capacity: 24, RankBits: 4, TimeBits: 3}
	// The engine interpreter's seeds, as the same operation sequences.
	f.Add(append([]byte{1}, sh.Program(1, 0, 1, 0, 2, 0, 0, 63, 0, 4, 0, 1, 8, 0, 0, 15, 0, 7, 0, 0, 63, 0, 1, 0, 0, 8, 0, 0)...))
	f.Add(append([]byte{8}, sh.Program(1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)...))
	f.Add(append([]byte{3}, sh.Program(15, 0, 1, 0, 0, 15, 0, 1, 0, 0)...))
	f.Add(append([]byte{8}, sh.Program(1, 0, 10, 0, 1, 0, 0, 1, 0, 0, 0, 4, 0, 0, 15, 0, 0, 0, 0, 31, 0, 0, 0, 0, 63, 0, 5, 0, 0, 8, 0, 0)...))
	f.Add(append([]byte{5}, sh.Program(1, 0, 14, 0, 5, 0, 0, 31, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 31, 0, 1, 0, 0)...))

	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		k := int(program[0]%8) + 1
		conform.Run(t, func(n int) backend.Backend { return shard.New(n, k) }, program[1:min(len(program), 4097)])
	})
}
