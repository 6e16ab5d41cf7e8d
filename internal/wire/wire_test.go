package wire

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func tupleUDP() FiveTuple {
	return FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 53, Protocol: ProtoUDP,
	}
}

func tupleTCP() FiveTuple {
	return FiveTuple{
		SrcIP: [4]byte{192, 168, 1, 5}, DstIP: [4]byte{172, 16, 0, 9},
		SrcPort: 44321, DstPort: 443, Protocol: ProtoTCP,
	}
}

func TestRoundTripUDP(t *testing.T) {
	frame := BuildFrame(tupleUDP(), 100)
	var d Decoder
	got, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != tupleUDP() {
		t.Fatalf("tuple = %v, want %v", got, tupleUDP())
	}
	if d.IP.Protocol != ProtoUDP || d.Trans.DstPort != 53 {
		t.Fatalf("layers = %+v %+v", d.IP, d.Trans)
	}
}

func TestRoundTripTCP(t *testing.T) {
	frame := BuildFrame(tupleTCP(), 1000)
	var d Decoder
	got, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != tupleTCP() {
		t.Fatalf("tuple = %v, want %v", got, tupleTCP())
	}
}

func TestChecksumValid(t *testing.T) {
	frame := BuildFrame(tupleUDP(), 64)
	if !ValidateIPv4Checksum(frame) {
		t.Fatal("generated frame has a bad IPv4 checksum")
	}
	frame[ethHeaderLen+8]++ // corrupt TTL
	if ValidateIPv4Checksum(frame) {
		t.Fatal("corrupted frame passed checksum")
	}
}

func TestDecodeErrors(t *testing.T) {
	var d Decoder
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"short-eth", make([]byte, 10), ErrTruncated},
		{"not-ipv4", func() []byte {
			f := BuildFrame(tupleUDP(), 10)
			f[12], f[13] = 0x86, 0xdd // IPv6 ethertype
			return f
		}(), ErrNotIPv4},
		{"bad-version", func() []byte {
			f := BuildFrame(tupleUDP(), 10)
			f[ethHeaderLen] = 0x65
			return f
		}(), ErrNotIPv4},
		{"bad-ihl", func() []byte {
			f := BuildFrame(tupleUDP(), 10)
			f[ethHeaderLen] = 0x41 // IHL 4 -> 16 bytes < 20
			return f
		}(), ErrBadIHL},
		{"truncated-ip", append(BuildFrame(tupleUDP(), 10)[:ethHeaderLen], make([]byte, 8)...), ErrTruncated},
		{"unsupported-proto", func() []byte {
			f := BuildFrame(tupleUDP(), 10)
			f[ethHeaderLen+9] = 1 // ICMP
			return f
		}(), ErrUnsupported},
		{"truncated-udp", BuildFrame(tupleUDP(), 10)[:ethHeaderLen+ipv4MinHeader+4], ErrTruncated},
		// Offset 185 (x8 bytes), MF clear: the last fragment of a datagram.
		{"last-fragment", fragment(BuildFrame(tupleUDP(), 100), 185), ErrFragment},
		{"middle-fragment", fragment(BuildFrame(tupleTCP(), 100), flagMF|1), ErrFragment},
		// Too short for a UDP header, but it has none: the offset decides.
		{"short-fragment", fragment(BuildFrame(tupleUDP(), 10), 2)[:ethHeaderLen+ipv4MinHeader+4], ErrFragment},
	}
	for _, c := range cases {
		_, err := d.Decode(c.frame)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

const (
	flagDF = 0x4000
	flagMF = 0x2000
)

// fragment rewrites a frame's IPv4 flags+fragment-offset word.
func fragment(frame []byte, flagsOffset uint16) []byte {
	binary.BigEndian.PutUint16(frame[ethHeaderLen+6:], flagsOffset)
	return frame
}

// Offset zero carries the transport header whatever the flags say: an
// unfragmented datagram, DF or not, and the first fragment of one.
func TestDecodeFirstFragment(t *testing.T) {
	var d Decoder
	for _, flags := range []uint16{0, flagDF, flagMF} {
		got, err := d.Decode(fragment(BuildFrame(tupleUDP(), 100), flags))
		if err != nil || got != tupleUDP() {
			t.Errorf("flags %#04x: got %v, %v; want %v", flags, got, err, tupleUDP())
		}
	}
}

// A later fragment's payload must not be classified: before the fix its
// first four bytes were read as ports and the packet joined a flow of
// its own.
func TestFragmentNotClassifiedByPayload(t *testing.T) {
	frame := fragment(BuildFrame(tupleUDP(), 100), 64)
	copy(frame[ethHeaderLen+ipv4MinHeader:], []byte{0xde, 0xad, 0xbe, 0xef}) // payload, not ports
	var d Decoder
	if got, err := d.Decode(frame); !errors.Is(err, ErrFragment) || got != (FiveTuple{}) {
		t.Fatalf("got %v, %v; want the zero tuple and ErrFragment", got, err)
	}
}

// FuzzDecode holds the decoder to its contract on arbitrary bytes: it
// never panics, an error comes with the zero tuple, and a success means
// the frame really is an unfragmented-or-first IPv4 TCP/UDP packet whose
// header fields are the ones returned.
func FuzzDecode(f *testing.F) {
	f.Add(BuildFrame(tupleUDP(), 32))
	f.Add(BuildFrame(tupleTCP(), 0))
	f.Add(fragment(BuildFrame(tupleUDP(), 32), flagMF))   // first fragment
	f.Add(fragment(BuildFrame(tupleUDP(), 32), flagMF|3)) // middle fragment
	f.Add(fragment(BuildFrame(tupleTCP(), 32), 0x1fff))   // last fragment, largest offset
	f.Add(BuildFrame(tupleUDP(), 0)[:ethHeaderLen+ipv4MinHeader])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var d Decoder
		got, err := d.Decode(frame)
		if err != nil {
			if got != (FiveTuple{}) {
				t.Fatalf("error %v with tuple %v", err, got)
			}
			return
		}
		ip := frame[ethHeaderLen:]
		ihl := int(ip[0]&0x0f) * 4
		if off := binary.BigEndian.Uint16(ip[6:8]) & 0x1fff; off != 0 {
			t.Fatalf("decoded ports from a fragment at offset %d", off)
		}
		want := FiveTuple{
			SrcPort:  binary.BigEndian.Uint16(ip[ihl:]),
			DstPort:  binary.BigEndian.Uint16(ip[ihl+2:]),
			Protocol: ip[9],
		}
		copy(want.SrcIP[:], ip[12:16])
		copy(want.DstIP[:], ip[16:20])
		if got != want || (got.Protocol != ProtoTCP && got.Protocol != ProtoUDP) {
			t.Fatalf("decoded %v from a frame carrying %v", got, want)
		}
	})
}

// The tuple table against a map: same IDs, same refusals, for tuples
// that differ in one field at a time (the structured inputs a weak hash
// collapses), with and without direction folding.
func TestClassifierMatchesMap(t *testing.T) {
	for _, symmetric := range []bool{false, true} {
		const flows = 3000
		c := NewClassifier(flows)
		c.Symmetric = symmetric
		ref := map[FiveTuple]int{}
		canon := func(t FiveTuple) FiveTuple {
			if _, seen := ref[t.Reverse()]; symmetric && seen {
				return t.Reverse()
			}
			return t
		}
		probe := func(tu FiveTuple) {
			id, ok := c.Classify(tu)
			want, seen := ref[canon(tu)]
			switch {
			case seen:
			case len(ref) < flows:
				want, seen = len(ref), true
				ref[canon(tu)] = want
			}
			if ok != seen || (ok && int(id) != want) {
				t.Fatalf("symmetric=%v %v: got (%d, %v), want (%d, %v)", symmetric, tu, id, ok, want, seen)
			}
			if lid, lok := c.Lookup(tu); lok != ok || lid != id {
				t.Fatalf("symmetric=%v %v: Lookup (%d, %v) after Classify (%d, %v)", symmetric, tu, lid, lok, id, ok)
			}
		}
		base := tupleUDP()
		for round := 0; round < 2; round++ { // the second round finds every tuple again
			for i := 0; i < 700; i++ {
				v := base
				v.SrcIP[3], v.SrcIP[2] = byte(i), byte(i>>8)
				probe(v)
				v = base
				v.DstIP[0], v.DstIP[1] = byte(i), byte(i>>8)
				probe(v)
				v = base
				v.SrcPort = uint16(i << 4)
				probe(v)
				v = base
				v.DstPort = uint16(i)
				probe(v)
				v = base
				v.Protocol = uint8(i)
				probe(v)
				probe(v.Reverse())
			}
		}
		if c.Flows() != len(ref) || c.Flows() != flows {
			t.Fatalf("symmetric=%v: %d flows, map holds %d, want the table full at %d", symmetric, c.Flows(), len(ref), flows)
		}
	}
}

// Sequential addresses and ports — what a rack of hosts looks like —
// must not pile up: with the table at most half full, a lookup should
// inspect about one and a half slots.
func TestClassifierProbeLength(t *testing.T) {
	const flows = 4096
	c := NewClassifier(flows)
	total, longest := 0, 0
	for i := 0; i < flows; i++ {
		k := pack(FiveTuple{
			SrcIP: [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{192, 168, 0, 1},
			SrcPort: uint16(1024 + i), DstPort: 443, Protocol: ProtoUDP,
		})
		*c.find(k) = tupleSlot{key: k, id: 1}
	}
	for i := range c.slots {
		if k := c.slots[i].key; k.rest != 0 {
			d := (i - int(c.home(k))) & (len(c.slots) - 1)
			total += d + 1
			longest = max(longest, d+1)
		}
	}
	if mean := float64(total) / flows; mean > 2 || longest > 32 {
		t.Fatalf("mean probe length %.2f (longest %d) over %d sequential tuples in %d slots", mean, longest, flows, len(c.slots))
	}
}

func TestFiveTupleString(t *testing.T) {
	got := tupleUDP().String()
	want := "10.0.0.1:5000->10.0.0.2:53/udp"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestFastHashSymmetric(t *testing.T) {
	a := tupleTCP()
	if a.FastHash() != a.Reverse().FastHash() {
		t.Fatal("FastHash not direction-symmetric")
	}
	b := tupleUDP()
	if a.FastHash() == b.FastHash() {
		t.Fatal("distinct tuples hash equal (unlucky, change the hash)")
	}
}

func TestClassifierStableIDs(t *testing.T) {
	c := NewClassifier(8)
	id1, ok := c.Classify(tupleUDP())
	if !ok {
		t.Fatal("Classify failed")
	}
	id2, _ := c.Classify(tupleTCP())
	if id1 == id2 {
		t.Fatal("distinct tuples share an id")
	}
	again, _ := c.Classify(tupleUDP())
	if again != id1 {
		t.Fatalf("id changed: %d -> %d", id1, again)
	}
	if c.Flows() != 2 {
		t.Fatalf("Flows = %d", c.Flows())
	}
}

func TestClassifierCapacity(t *testing.T) {
	c := NewClassifier(1)
	if _, ok := c.Classify(tupleUDP()); !ok {
		t.Fatal("first flow rejected")
	}
	if _, ok := c.Classify(tupleTCP()); ok {
		t.Fatal("flow table overflow admitted")
	}
	// Existing flows still classify.
	if _, ok := c.Classify(tupleUDP()); !ok {
		t.Fatal("existing flow rejected at capacity")
	}
}

func TestClassifierSymmetric(t *testing.T) {
	c := NewClassifier(8)
	c.Symmetric = true
	fwd, _ := c.Classify(tupleTCP())
	rev, _ := c.Classify(tupleTCP().Reverse())
	if fwd != rev {
		t.Fatal("symmetric classifier split a connection")
	}
	if c.Flows() != 1 {
		t.Fatalf("Flows = %d, want 1", c.Flows())
	}
}

func TestClassifierLookupDoesNotAllocate(t *testing.T) {
	c := NewClassifier(8)
	if _, ok := c.Lookup(tupleUDP()); ok {
		t.Fatal("Lookup invented a flow")
	}
	if c.Flows() != 0 {
		t.Fatal("Lookup allocated")
	}
}

func TestNewClassifierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClassifier(0) did not panic")
		}
	}()
	NewClassifier(0)
}

// Property: Decode(BuildFrame(t)) == t for arbitrary tuples, and the
// checksum always validates.
func TestRoundTripProperty(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, tcp bool, payload uint8) bool {
		proto := uint8(ProtoUDP)
		if tcp {
			proto = ProtoTCP
		}
		in := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Protocol: proto}
		frame := BuildFrame(in, int(payload))
		if !ValidateIPv4Checksum(frame) {
			return false
		}
		var d Decoder
		out, err := d.Decode(frame)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never allocates per packet after warm-up.
func TestDecodeZeroAlloc(t *testing.T) {
	frame := BuildFrame(tupleTCP(), 512)
	var d Decoder
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := d.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Decode allocates %v per packet, want 0", allocs)
	}
}
