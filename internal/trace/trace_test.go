package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sam/internal/dram"
	"sam/internal/mc"
)

func sampleTrace() *Trace {
	t := &Trace{}
	t.Add(Record{Addr: 0x1000, Arrival: 10})
	t.Add(Record{Addr: 0x2040, IsWrite: true, Arrival: 20})
	t.Add(Record{Addr: 0x3000, Stride: true, Lane: 2, Gang: true, Arrival: 30})
	t.Add(Record{Addr: 0x4000, Stride: true, IsWrite: true, Lane: 1, Arrival: 44})
	return t
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Records, back.Records) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr.Records, back.Records)
	}
}

func TestTraceTextFormat(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	tr.Write(&buf)
	out := buf.String()
	for _, want := range []string{"R 0x00001000 @10", "W 0x00002040 @20", "S 0x00003000 lane=2 gang @30", "T 0x00004000 lane=1 @44"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace text missing %q in:\n%s", want, out)
		}
	}
}

func TestTraceCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n\nR 0x00000040 @5\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Records[0].Addr != 0x40 {
		t.Fatalf("parsed %+v", tr.Records)
	}
}

func TestTraceParseErrors(t *testing.T) {
	bad := []string{
		"X 0x1000 @5",
		"R nothex @5",
		"R 0x1000 lane=z @5",
		"R 0x1000 mystery @5",
		"R 0x1000",
		// Strict-token violations the old Sscanf parser accepted.
		"S 0x1000 lane=3junk @5",
		"R 0x1000 @12x",
		"R 0x1000x @5",
		"S 0x1000 lane=1 lane=2 @5",
		"S 0x1000 gang gang @5",
		"R 0x1000 @5 @6",
		"S 0x1000 lane=-1 @5",
		"R 0x1000 @-5",
		// Fields only legal on strided records, and a missing arrival.
		"R 0x1000 lane=1 @5",
		"W 0x1000 gang @5",
		"S 0x1000 lane=1",
	}
	for _, line := range bad {
		if _, err := Read(strings.NewReader(line)); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestRecordRoundTripProperty asserts parseLine(rec.String()) == rec over
// every representable record shape: all four kinds, gang on/off, and
// boundary addresses/lanes/arrivals.
func TestRecordRoundTripProperty(t *testing.T) {
	addrs := []uint64{0, 0x40, 0x00001040, 1 << 33, ^uint64(0)}
	lanes := []int{0, 1, 3, 1 << 20}
	arrivals := []dram.Cycle{0, 1, 120, 1<<62 - 1}
	for _, isWrite := range []bool{false, true} {
		for _, stride := range []bool{false, true} {
			for _, gang := range []bool{false, true} {
				for _, addr := range addrs {
					for _, lane := range lanes {
						for _, at := range arrivals {
							rec := Record{Addr: addr, IsWrite: isWrite, Stride: stride, Arrival: at}
							if stride {
								rec.Lane, rec.Gang = lane, gang
							} else if lane != 0 || gang {
								continue // not representable in the text format
							}
							back, err := parseLine(rec.String())
							if err != nil {
								t.Fatalf("parseLine(%q): %v", rec.String(), err)
							}
							if back != rec {
								t.Fatalf("round trip changed %+v -> %+v (line %q)", rec, back, rec.String())
							}
						}
					}
				}
			}
		}
	}
}

// FuzzRecordRoundTrip is the fuzz form of the round-trip property: for any
// canonical record (lane/gang only on strided records, non-negative
// arrival), String followed by parseLine is the identity.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0x1040), false, false, uint32(0), false, uint64(120))
	f.Add(uint64(0x3000), false, true, uint32(2), true, uint64(500))
	f.Add(^uint64(0), true, true, uint32(1<<31-1), false, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, addr uint64, isWrite, stride bool, lane uint32, gang bool, arrival uint64) {
		rec := Record{Addr: addr, IsWrite: isWrite, Stride: stride, Arrival: dram.Cycle(arrival % (1 << 62))}
		if stride {
			rec.Lane = int(lane % (1 << 30))
			rec.Gang = gang
		}
		back, err := parseLine(rec.String())
		if err != nil {
			t.Fatalf("parseLine(%q): %v", rec.String(), err)
		}
		if back != rec {
			t.Fatalf("round trip changed %+v -> %+v", rec, back)
		}
	})
}

func TestRequestConversion(t *testing.T) {
	r := Record{Addr: 0xABC0, Stride: true, Lane: 3, Arrival: 99}
	req := r.Request(7)
	if req.ID != 7 || req.Addr != 0xABC0 || !req.Stride || req.Lane != 3 || req.Arrival != 99 {
		t.Fatalf("conversion lost fields: %+v", req)
	}
	if FromRequest(req) != r {
		t.Fatal("FromRequest not inverse of Request")
	}
}

func TestReplayDrivesController(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	tr := &Trace{}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		tr.Add(Record{
			Addr:    uint64(rng.Intn(1 << 24)),
			IsWrite: rng.Intn(4) == 0,
			Arrival: dram.Cycle(i * 3),
		})
	}
	comps, err := Replay(tr, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 500 {
		t.Fatalf("replayed %d completions, want 500", len(comps))
	}
	if ctrl.Stats.Reads+ctrl.Stats.Writes != 500 {
		t.Fatalf("controller stats: %+v", ctrl.Stats)
	}
}

func TestReplayAtQueueCapacity(t *testing.T) {
	// Tiny queues with a same-cycle burst force the back-pressure loop to
	// service between every enqueue. All records must still complete — the
	// old Replay broke out of the loop and pushed past capacity.
	dev := dram.NewDevice(dram.DDR4_2400())
	cfg := mc.DefaultConfig()
	cfg.ReadQueueCap = 2
	cfg.WriteQueueCap = 2
	ctrl := mc.NewController(dev, cfg)
	tr := &Trace{}
	for i := 0; i < 64; i++ {
		tr.Add(Record{Addr: uint64(i) * 4096, IsWrite: i%2 == 1, Arrival: 0})
	}
	comps, err := Replay(tr, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 64 {
		t.Fatalf("replayed %d completions, want 64", len(comps))
	}
	if ctrl.Pending() != 0 {
		t.Fatalf("%d requests left queued after drain", ctrl.Pending())
	}
}

func TestReplayDeterministic(t *testing.T) {
	mk := func() []mc.Completion {
		dev := dram.NewDevice(dram.DDR4_2400())
		ctrl := mc.NewController(dev, mc.DefaultConfig())
		tr := sampleTrace()
		comps, err := Replay(tr, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		return comps
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("replay not deterministic")
	}
}

// FuzzRead is a native fuzz target for the trace parser: arbitrary input
// must never panic, and anything that parses must round-trip through the
// text format.
func FuzzRead(f *testing.F) {
	f.Add("R 0x00001000 @10\n")
	f.Add("S 0x00003000 lane=2 gang @30\nT 0x00004000 lane=1 @44\n")
	f.Add("# comment\n\nW 0x0 @0\n")
	f.Add("X bogus\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("write of parsed trace failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(tr.Records, back.Records) {
			t.Fatal("round trip changed records")
		}
	})
}

func TestReplayObservedSeesEveryCompletionInOrder(t *testing.T) {
	dev := dram.NewDevice(dram.DDR4_2400())
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	tr := &Trace{}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		tr.Add(Record{
			Addr:    uint64(rng.Intn(1 << 24)),
			IsWrite: rng.Intn(4) == 0,
			Stride:  rng.Intn(3) == 0,
			Lane:    rng.Intn(4),
			Arrival: dram.Cycle(i * 2),
		})
	}
	var seen []mc.Completion
	comps, err := ReplayObserved(tr, ctrl, func(c mc.Completion) { seen = append(seen, c) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, comps) {
		t.Fatalf("observer saw %d completions, return slice has %d (or order differs)", len(seen), len(comps))
	}
	if len(comps) != tr.Len() {
		t.Fatalf("%d completions for %d records", len(comps), tr.Len())
	}
}

func TestReplayObservedNilEqualsReplay(t *testing.T) {
	run := func(observe bool) []mc.Completion {
		dev := dram.NewDevice(dram.DDR4_2400())
		ctrl := mc.NewController(dev, mc.DefaultConfig())
		tr := sampleTrace()
		var comps []mc.Completion
		var err error
		if observe {
			comps, err = ReplayObserved(tr, ctrl, func(mc.Completion) {})
		} else {
			comps, err = Replay(tr, ctrl)
		}
		if err != nil {
			t.Fatal(err)
		}
		return comps
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("Replay and ReplayObserved diverge")
	}
}
