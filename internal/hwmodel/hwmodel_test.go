package hwmodel

import (
	"math"
	"testing"
	"testing/quick"

	"pieo/internal/hwsim"
)

// sqrtShape is the datapath the figures price: capacity n at the paper's
// √n sublist size.
func sqrtShape(n int) hwsim.Counts { return hwsim.Shape(n, hwsim.SublistSize(n)) }

// TestPIEOGeometrySqrtN: the model prices hwsim's √N shape, two slack
// sublists included.
func TestPIEOGeometrySqrtN(t *testing.T) {
	c := sqrtShape(16)
	if c.SublistSize != 4 || c.Sublists != 10 {
		t.Fatalf("shape(16) = %+v, want 10 sublists of 4", c)
	}
	c = sqrtShape(30000)
	if c.SublistSize != 174 {
		t.Fatalf("SublistSize(30000) = %d, want 174", c.SublistSize)
	}
	// 2*ceil(30000/174) + 2 = 2*173 + 2 = 348
	if c.Sublists != 348 {
		t.Fatalf("Sublists(30000) = %d, want 348", c.Sublists)
	}
}

func TestGeometryCapacityInvariant(t *testing.T) {
	// The sublist array must hold at least 2x the capacity (Invariant 1
	// tolerates fragmentation up to half-empty alternation).
	f := func(n16 uint16) bool {
		n := int(n16)%100000 + 1
		c := sqrtShape(n)
		return c.Sublists*c.SublistSize >= 2*n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGeometryPanicsOnZero: no PIEO of capacity 0 can be priced.
func TestGeometryPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PIEOResources(sqrtShape(0)) did not panic")
		}
	}()
	PIEOResources(sqrtShape(0))
}

func TestPIFOCalibrationPoint(t *testing.T) {
	// Paper Fig 8: open-source PIFO at 1K elements consumes 64% of the
	// 234K ALMs on the Stratix V.
	r := PIFOResources(1024)
	pct := r.ALMPercent(StratixV)
	if math.Abs(pct-64) > 1 {
		t.Fatalf("PIFO@1K = %.1f%% ALMs, want ~64%%", pct)
	}
}

func TestPIFODoesNotFit2K(t *testing.T) {
	// Paper: "we can't fit a PIFO with 2K elements or more on our FPGA."
	if PIFOResources(2048).FitsOn(StratixV) {
		t.Fatal("PIFO@2K fits the Stratix V in the model; paper says it must not")
	}
	if !PIFOResources(1024).FitsOn(StratixV) {
		t.Fatal("PIFO@1K does not fit; paper says it does (at 64%)")
	}
}

func TestPIEOFits30K(t *testing.T) {
	// Paper: "we can easily fit a PIEO scheduler with 30K elements."
	r := PIEOResources(sqrtShape(30000))
	if !r.FitsOn(StratixV) {
		t.Fatalf("PIEO@30K does not fit: %d ALMs, %d SRAM bits", r.ALMs, r.SRAMBits)
	}
	if pct := r.ALMPercent(StratixV); pct > 50 {
		t.Fatalf("PIEO@30K consumes %.1f%% ALMs; 'easily fits' implies well under half", pct)
	}
}

func TestPIEOLogicSublinear(t *testing.T) {
	// Quadrupling capacity should roughly double PIEO logic (sqrt
	// scaling), while PIFO logic quadruples (linear).
	p1 := PIEOResources(sqrtShape(4096)).ALMs
	p4 := PIEOResources(sqrtShape(16384)).ALMs
	ratio := float64(p4) / float64(p1)
	if ratio > 2.6 {
		t.Fatalf("PIEO ALM growth x4 capacity = %.2fx, want ~2x (sqrt)", ratio)
	}
	f1 := PIFOResources(4096).ALMs
	f4 := PIFOResources(16384).ALMs
	if r := float64(f4) / float64(f1); math.Abs(r-4) > 0.01 {
		t.Fatalf("PIFO ALM growth x4 capacity = %.2fx, want 4x (linear)", r)
	}
}

func TestPIEOSRAMTwiceCapacity(t *testing.T) {
	// Invariant 1 costs 2x SRAM: words = Sublists*SublistSize ≈ 2N, plus
	// the ceiling and the two slack sublists.
	c := sqrtShape(1 << 14)
	r := PIEOResources(c)
	wantBits := uint64(2*c.Capacity) * uint64(c.WordBits)
	if r.SRAMBits < wantBits || r.SRAMBits > wantBits+uint64(4*c.SublistSize*c.WordBits) {
		t.Fatalf("SRAMBits = %d, want ~%d (2x capacity)", r.SRAMBits, wantBits)
	}
}

func TestPIEOSRAMModestAt30K(t *testing.T) {
	// Paper Fig 9: total SRAM consumption is "fairly modest" even with
	// the 2x overhead.
	r := PIEOResources(sqrtShape(30000))
	if pct := r.SRAMPercent(StratixV); pct > 25 {
		t.Fatalf("PIEO@30K SRAM = %.1f%%, want modest (<25%%)", pct)
	}
}

func TestPIFOUsesNoSRAM(t *testing.T) {
	r := PIFOResources(1024)
	if r.SRAMBits != 0 || r.SRAMBlocks(StratixV) != 0 {
		t.Fatalf("PIFO reports SRAM usage %d bits / %d blocks; design is all flip-flops", r.SRAMBits, r.SRAMBlocks(StratixV))
	}
}

func TestClockCalibrationPoints(t *testing.T) {
	// Paper §6.2: PIFO clocked at 57 MHz at 1K on this FPGA; PIEO at
	// ~80 MHz at its 30K operating point.
	if got := PIFOClockMHz(1024); math.Abs(got-57) > 2 {
		t.Fatalf("PIFOClockMHz(1K) = %.1f, want ~57", got)
	}
	if got := PIEOClockMHz(sqrtShape(30000)); math.Abs(got-80) > 3 {
		t.Fatalf("PIEOClockMHz(30K) = %.1f, want ~80", got)
	}
}

func TestClockMonotonicallyDecreasing(t *testing.T) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
	prev := math.Inf(1)
	for _, n := range sizes {
		f := PIEOClockMHz(sqrtShape(n))
		if f >= prev {
			t.Fatalf("PIEO clock not decreasing at n=%d: %.1f >= %.1f", n, f, prev)
		}
		prev = f
	}
}

func TestNsPerOpHeadlines(t *testing.T) {
	// 4 cycles at 80 MHz = 50 ns (§6.2), under the 120 ns budget for MTU
	// at 100 Gbps; 4 cycles at 1 GHz ASIC = 4 ns.
	if got := NsPerOp(80, CyclesPerOp); math.Abs(got-50) > 1e-9 {
		t.Fatalf("NsPerOp(80MHz, 4) = %v, want 50", got)
	}
	if got := NsPerOp(ASICClockMHz, CyclesPerOp); math.Abs(got-4) > 1e-9 {
		t.Fatalf("NsPerOp(1GHz, 4) = %v, want 4", got)
	}
	if NsPerOp(80, CyclesPerOp) > 120 {
		t.Fatal("PIEO misses the MTU@100Gbps budget in its own calibration")
	}
}

func TestScalabilityHeadline(t *testing.T) {
	// Paper: PIEO is "over 30x more scalable" than PIFO.
	pifoMax := MaxPIFOFit(StratixV)
	pieoMax := MaxPIEOFit(StratixV)
	if pifoMax < 1024 || pifoMax >= 2048 {
		t.Fatalf("MaxPIFOFit = %d, want in [1024, 2048)", pifoMax)
	}
	if pieoMax < 30000 {
		t.Fatalf("MaxPIEOFit = %d, want >= 30000", pieoMax)
	}
	if ratio := float64(pieoMax) / float64(pifoMax); ratio < 30 {
		t.Fatalf("scalability ratio = %.1fx, want > 30x", ratio)
	}
}

func TestSRAMBlocksStriping(t *testing.T) {
	// Each sublist must be readable in one cycle, so blocks >= one column
	// per sublist slot (SublistSize columns).
	c := sqrtShape(30000)
	r := PIEOResources(c)
	if b := r.SRAMBlocks(StratixV); b < c.SublistSize {
		t.Fatalf("SRAMBlocks = %d < SublistSize %d; sublist not fully striped", b, c.SublistSize)
	}
	// And the paper's device has ~2500 blocks; 30K must fit.
	if b := r.SRAMBlocks(StratixV); b > 2500 {
		t.Fatalf("SRAMBlocks = %d exceeds the device's ~2500", b)
	}
}

// TestSRAMBlocksFollowDevice prices the 30K datapath on a device whose
// blocks are 10 Kbit, half the M20K: a column of 348 64-bit words (22 272
// bits) takes 3 such blocks where it takes 2 M20Ks, so 174 columns take
// 522 blocks. FitsOn counts them: with 522 blocks the datapath fits, and
// with 521 it does not, although 521 blocks hold more bits than it uses.
func TestSRAMBlocksFollowDevice(t *testing.T) {
	c := sqrtShape(30000)
	r := PIEOResources(c)
	if b := r.SRAMBlocks(StratixV); b != 174*2 {
		t.Fatalf("SRAMBlocks(StratixV) = %d, want %d x 2", b, c.SublistSize)
	}
	small := StratixV
	small.Name, small.SRAMBlockBits = "10 Kbit blocks", 10_000
	if b := r.SRAMBlocks(small); b != 174*3 {
		t.Fatalf("SRAMBlocks on 10 Kbit blocks = %d, want %d x 3", b, c.SublistSize)
	}
	small.SRAMBits = 522 * small.SRAMBlockBits
	if !r.FitsOn(small) {
		t.Fatalf("PIEO@30K does not fit 522 blocks of 10 Kbit")
	}
	small.SRAMBits -= small.SRAMBlockBits
	if r.SRAMBits > small.SRAMBits {
		t.Fatalf("%d bits of SRAM do not hold the %d the datapath uses", small.SRAMBits, r.SRAMBits)
	}
	if r.FitsOn(small) {
		t.Fatalf("PIEO@30K fits 521 blocks, want it to need 522")
	}
}

// TestPointerEntryBits: the register file is priced at one pointer entry
// per sublist. At capacity 16 an entry is a 4-bit sublist id, 16-bit
// rank and send_time, a 3-bit count and two 16-bit ID bounds: 71 bits,
// times 10 sublists, plus the two staged sublists of 5 lanes of 64 bits.
func TestPointerEntryBits(t *testing.T) {
	c := sqrtShape(16)
	if got := c.Entry.Total(); got != 71 {
		t.Fatalf("pointer entry = %d bits, want 71", got)
	}
	if got := PIEOResources(c).FlipFlopBits; got != 10*71+2*5*64 {
		t.Fatalf("FlipFlopBits = %d, want %d", got, 10*71+2*5*64)
	}
}

// TestElementBits: an SRAM word is flow id, rank, send_time and its
// eligibility copy, 64 bits, and the SRAM is priced at 10 sublists of 4.
func TestElementBits(t *testing.T) {
	c := sqrtShape(16)
	if c.WordBits != 64 {
		t.Fatalf("WordBits = %d, want 64", c.WordBits)
	}
	if got := PIEOResources(c).SRAMBits; got != 10*4*64 {
		t.Fatalf("SRAMBits = %d, want %d", got, 10*4*64)
	}
}

// Property: PIEO always uses fewer ALMs than PIFO at equal capacity >= 64
// (the whole point of the design).
func TestPIEOBeatsPIFOProperty(t *testing.T) {
	f := func(n16 uint16) bool {
		n := int(n16)%65536 + 64
		return PIEOResources(sqrtShape(n)).ALMs < PIFOResources(n).ALMs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
