package flowq

import (
	"testing"
	"testing/quick"
)

func TestQueueZeroValue(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("zero Queue not empty: len=%d bytes=%d", q.Len(), q.Bytes())
	}
	if _, ok := q.Head(); ok {
		t.Fatal("Head on empty queue reported ok")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.Push(Packet{Flow: 1, Size: uint32(i + 1), Seq: uint64(i)})
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		head, ok := q.Head()
		if !ok || head.Seq != uint64(i) {
			t.Fatalf("Head #%d = %+v, ok=%v", i, head, ok)
		}
		p, ok := q.Pop()
		if !ok || p.Seq != uint64(i) {
			t.Fatalf("Pop #%d = %+v, ok=%v", i, p, ok)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestBytesAccounting(t *testing.T) {
	var q Queue
	q.Push(Packet{Size: 1500})
	q.Push(Packet{Size: 64})
	if q.Bytes() != 1564 {
		t.Fatalf("Bytes = %d, want 1564", q.Bytes())
	}
	q.Pop()
	if q.Bytes() != 64 {
		t.Fatalf("Bytes = %d, want 64", q.Bytes())
	}
	q.Pop()
	if q.Bytes() != 0 {
		t.Fatalf("Bytes = %d, want 0", q.Bytes())
	}
}

func TestRingWraparound(t *testing.T) {
	var q Queue
	// Force head to travel around the ring several times.
	seq := uint64(0)
	next := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			q.Push(Packet{Seq: seq})
			seq++
		}
		for i := 0; i < 3; i++ {
			p, ok := q.Pop()
			if !ok || p.Seq != next {
				t.Fatalf("round %d: Pop = %+v ok=%v, want seq %d", round, p, ok, next)
			}
			next++
		}
	}
	for {
		p, ok := q.Pop()
		if !ok {
			break
		}
		if p.Seq != next {
			t.Fatalf("drain: got seq %d, want %d", p.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d packets, pushed %d", next, seq)
	}
}

func TestTryPushTailDrop(t *testing.T) {
	q := Queue{Limit: 2}
	if !q.TryPush(Packet{Seq: 1}) || !q.TryPush(Packet{Seq: 2}) {
		t.Fatal("admission under limit failed")
	}
	if q.TryPush(Packet{Seq: 3}) {
		t.Fatal("admission over limit succeeded")
	}
	if q.Drops() != 1 || q.Len() != 2 {
		t.Fatalf("drops=%d len=%d", q.Drops(), q.Len())
	}
	q.Pop()
	if !q.TryPush(Packet{Seq: 4}) {
		t.Fatal("admission after drain failed")
	}
	// The survivors keep FIFO order.
	p, _ := q.Pop()
	if p.Seq != 2 {
		t.Fatalf("head seq = %d, want 2", p.Seq)
	}
}

func TestTryPushUnlimitedByDefault(t *testing.T) {
	var q Queue
	for i := 0; i < 1000; i++ {
		if !q.TryPush(Packet{Seq: uint64(i)}) {
			t.Fatal("unlimited queue dropped")
		}
	}
	if q.Drops() != 0 {
		t.Fatalf("drops = %d", q.Drops())
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// byte accounting.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []uint8, sizes []uint16) bool {
		var q Queue
		var model []Packet
		seq := uint64(0)
		si := 0
		for _, op := range ops {
			if op%3 != 0 || len(model) == 0 { // bias toward pushes
				size := uint32(1)
				if si < len(sizes) {
					size = uint32(sizes[si]) + 1
					si++
				}
				p := Packet{Seq: seq, Size: size}
				seq++
				q.Push(p)
				model = append(model, p)
			} else {
				got, ok := q.Pop()
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
			var wantBytes uint64
			for _, p := range model {
				wantBytes += uint64(p.Size)
			}
			if q.Bytes() != wantBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
