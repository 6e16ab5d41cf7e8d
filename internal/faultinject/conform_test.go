package faultinject_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/faultinject"
	"pieo/internal/refmodel/conform"
)

// TestConformanceEmptyPlan: with an empty Plan the wrapper must be
// invisible, so it meets the contract exactly as the list it wraps.
func TestConformanceEmptyPlan(t *testing.T) {
	wrapped := func(n int) backend.Backend {
		return faultinject.Wrap(backend.NewCoreList(n), faultinject.NewInjector(faultinject.Plan{}))
	}
	for ly := conform.Sequential; ly <= conform.Random; ly++ {
		sh := conform.Shape{Capacity: 64, RankBits: 6, TimeBits: 4, NeverOdds: 17, Layout: ly}
		for seed := int64(0); seed < 2; seed++ {
			conform.Run(t, wrapped, sh.Seeded(seed, 20000))
		}
	}
}
