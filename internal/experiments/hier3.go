package experiments

import (
	"fmt"

	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/policy"
	"pieo/internal/stats"
)

// Hier3 extends the §6.3 evaluation to the paper's general n-level claim
// (§4.3: "to support n-level hierarchical scheduling ... we need n
// physical PIEOs"): a three-level tree — tenants rate-limited at the
// root, VMs rate-limited inside each tenant, flows fair-queued inside
// each VM — must enforce both nested limits and intra-VM fairness
// simultaneously.
func Hier3() *Table {
	const (
		tenants  = 2
		vmsPer   = 2
		flowsPer = 5
	)
	tenantLimit := []float64{24, 12}
	vmShare := [][]float64{{16, 8}, {8, 4}} // per-tenant VM limits

	h := perLevel(policy.TokenBucket())
	var vmNodes [][]*hier.Node
	id := flowq.FlowID(0)
	var tenantNodes []*hier.Node
	for tn := 0; tn < tenants; tn++ {
		tenant := h.Root().AddNode(fmt.Sprintf("tenant%d", tn), policy.TokenBucket())
		tenantNodes = append(tenantNodes, tenant)
		var vms []*hier.Node
		for v := 0; v < vmsPer; v++ {
			vm := tenant.AddNode(fmt.Sprintf("t%dvm%d", tn, v), policy.WF2Q())
			for f := 0; f < flowsPer; f++ {
				vm.AddFlow(id)
				id++
			}
			vms = append(vms, vm)
		}
		vmNodes = append(vmNodes, vms)
	}
	h.Build()
	for tn, tenant := range tenantNodes {
		self := tenant.Self()
		self.RateGbps = tenantLimit[tn]
		self.Burst = 8 * mtu
		self.Tokens = self.Burst
		for v, vm := range vmNodes[tn] {
			vs := vm.Self()
			vs.RateGbps = vmShare[tn][v]
			vs.Burst = 8 * mtu
			vs.Tokens = vs.Burst
		}
	}

	flowBytes := make([]uint64, tenants*vmsPer*flowsPer)
	backlogged(h, len(flowBytes), trialDuration, func(now clock.Time, p flowq.Packet) {
		flowBytes[p.Flow] += uint64(p.Size)
	})

	t := &Table{
		ID:      "hier3",
		Title:   "Three-level enforcement: tenant TB over VM TB over flow WF2Q+ (§4.3)",
		Columns: []string{"node", "limit Gbps", "measured Gbps", "intra-VM Jain"},
	}
	for tn := 0; tn < tenants; tn++ {
		var tenantBytes uint64
		for v := 0; v < vmsPer; v++ {
			var vmBytes uint64
			var shares []float64
			for f := 0; f < flowsPer; f++ {
				b := flowBytes[(tn*vmsPer+v)*flowsPer+f]
				vmBytes += b
				shares = append(shares, float64(b))
			}
			tenantBytes += vmBytes
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("tenant%d/vm%d", tn, v),
				fmt.Sprintf("%.0f", vmShare[tn][v]),
				fmt.Sprintf("%.3f", float64(vmBytes)*8/float64(trialDuration)),
				fmt.Sprintf("%.5f", stats.JainIndex(shares)),
			})
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("tenant%d (total)", tn),
			fmt.Sprintf("%.0f", tenantLimit[tn]),
			fmt.Sprintf("%.3f", float64(tenantBytes)*8/float64(trialDuration)),
			"",
		})
	}
	t.Notes = []string{
		"three physical PIEOs, one per level; both nested rate limits hold at once",
		"VM limits within each tenant sum to the tenant limit, so neither level is slack",
	}
	return t
}
