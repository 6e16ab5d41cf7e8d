package backend_test

import (
	"errors"
	"slices"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	_ "pieo/internal/refmodel" // registers "ref"
)

// TestAdmit drives backend.Admit against a full list under every
// admission policy: the arrival (ID 9) either surfaces core.ErrFull or
// evicts the push-out victim, and the resident set after the call is
// exactly what the policy promises.
func TestAdmit(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		pol     backend.AdmissionPolicy
		ranks   []uint64 // residents, enqueued as IDs 1, 2, ... in this order
		arrival uint64   // the arrival's rank
		wantErr error
		want    backend.AdmitOutcome
		wantIDs []uint32 // residents after the call, in (rank, FIFO) order
	}{
		{
			name: "reject", backend: "core", pol: backend.AdmitReject,
			ranks: []uint64{10, 40, 20, 30}, arrival: 5,
			wantErr: core.ErrFull,
			wantIDs: []uint32{1, 3, 4, 2},
		},
		{
			name: "push-out evicts the max rank", backend: "core", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 40, 20, 30}, arrival: 5,
			want:    backend.AdmitOutcome{DidEvict: true, Evicted: core.Entry{ID: 2, Rank: 40, SendTime: clock.Always}},
			wantIDs: []uint32{9, 1, 3, 4},
		},
		{
			name: "push-out evicts the newest of equal max ranks", backend: "core", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 30, 30, 20}, arrival: 5,
			want:    backend.AdmitOutcome{DidEvict: true, Evicted: core.Entry{ID: 3, Rank: 30, SendTime: clock.Always}},
			wantIDs: []uint32{9, 1, 4, 2},
		},
		{
			name: "push-out drops an arrival equal to the max", backend: "core", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 40, 20, 30}, arrival: 40,
			wantErr: core.ErrFull,
			wantIDs: []uint32{1, 3, 4, 2},
		},
		{
			name: "push-out drops an arrival above the max", backend: "core", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 40, 20, 30}, arrival: 50,
			wantErr: core.ErrFull,
			wantIDs: []uint32{1, 3, 4, 2},
		},
		{
			// Every backend implements the push-out victim: the spec
			// sheds exactly what core sheds.
			name: "push-out on ref evicts the same victim as core", backend: "ref", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 40, 20, 30}, arrival: 5,
			want:    backend.AdmitOutcome{DidEvict: true, Evicted: core.Entry{ID: 2, Rank: 40, SendTime: clock.Always}},
			wantIDs: []uint32{9, 1, 3, 4},
		},
		{
			name: "push-out on ref evicts the newest of equal max ranks", backend: "ref", pol: backend.AdmitPushOut,
			ranks: []uint64{10, 30, 30, 20}, arrival: 5,
			want:    backend.AdmitOutcome{DidEvict: true, Evicted: core.Entry{ID: 3, Rank: 30, SendTime: clock.Always}},
			wantIDs: []uint32{9, 1, 4, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := backend.New(tc.backend, len(tc.ranks))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range tc.ranks {
				if err := b.Enqueue(core.Entry{ID: uint32(i + 1), Rank: r, SendTime: clock.Always}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := backend.Admit(b, tc.pol, core.Entry{ID: 9, Rank: tc.arrival, SendTime: clock.Always})
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("outcome = %+v, want %+v", got, tc.want)
			}
			var ids []uint32
			for _, e := range b.Snapshot() {
				ids = append(ids, e.ID)
			}
			if !slices.Equal(ids, tc.wantIDs) {
				t.Fatalf("residents = %v, want %v", ids, tc.wantIDs)
			}
		})
	}
}
