package vm

import (
	"testing"
	"testing/quick"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/mc"
)

func remap4bit() mc.StrideRemap {
	return mc.StrideRemap{SectorBytes: 8, Reach: 8, LineBytes: 64}
}

func space(t *testing.T) *AddressSpace {
	t.Helper()
	a := New(remap4bit())
	if err := a.Map(Mapping{VirtBase: 0x10000, PhysBase: 0x400000, Bytes: 64 * PageBytes}); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(Mapping{VirtBase: 0x40000000, PhysBase: 0x80000000, Bytes: 2 * HugePageBytes, Huge: true, StrideMode: true}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTranslateRegularMapping(t *testing.T) {
	a := space(t)
	pa, err := a.Translate(0x10000 + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x400000+0x1234 {
		t.Fatalf("pa = %#x", pa)
	}
}

func TestTranslateFaults(t *testing.T) {
	a := space(t)
	for _, va := range []uint64{0x0, 0xFFFF, 0x10000 + 64*PageBytes, 0x3FFFFFFF} {
		if _, err := a.Translate(va); err == nil {
			t.Errorf("no fault at %#x", va)
		}
	}
}

func TestMapAlignmentAndOverlap(t *testing.T) {
	a := New(remap4bit())
	if err := a.Map(Mapping{VirtBase: 0x1001, PhysBase: 0, Bytes: PageBytes}); err == nil {
		t.Error("unaligned virt base accepted")
	}
	if err := a.Map(Mapping{VirtBase: 0x1000, PhysBase: 0x10, Bytes: PageBytes}); err == nil {
		t.Error("unaligned phys base accepted")
	}
	if err := a.Map(Mapping{VirtBase: 0x1000, PhysBase: 0, Bytes: 100}); err == nil {
		t.Error("unaligned length accepted")
	}
	if err := a.Map(Mapping{VirtBase: 0x1000, PhysBase: 0, Bytes: 4 * PageBytes}); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(Mapping{VirtBase: 0x2000, PhysBase: 0x100000, Bytes: PageBytes}); err == nil {
		t.Error("overlapping mapping accepted")
	}
	if len(a.Mappings()) != 1 {
		t.Fatal("mapping list")
	}
}

func TestStrideModeRemapsWithinPage(t *testing.T) {
	a := space(t)
	base := uint64(0x40000000)
	// The remap is a bijection of each 4KB page onto itself.
	seen := map[uint64]bool{}
	for off := uint64(0); off < PageBytes; off += 8 {
		pa, err := a.Translate(base + off)
		if err != nil {
			t.Fatal(err)
		}
		page := pa &^ uint64(PageBytes-1)
		if page != 0x80000000 {
			t.Fatalf("offset %#x escaped its page: %#x", off, pa)
		}
		if seen[pa] {
			t.Fatalf("collision at %#x", pa)
		}
		seen[pa] = true
	}
}

func TestStrideModeGathersSectors(t *testing.T) {
	// The defining property: same-offset sectors of the reach-group's lines
	// become physically consecutive.
	a := space(t)
	base := uint64(0x40000000)
	sector := uint64(3 * 8) // sector 3 of each line
	var pas []uint64
	for line := uint64(0); line < 8; line++ {
		pa, err := a.Translate(base + line*64 + sector)
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	for i := 1; i < len(pas); i++ {
		if pas[i] != pas[i-1]+8 {
			t.Fatalf("gathered sectors not consecutive: %#x after %#x", pas[i], pas[i-1])
		}
	}
}

func TestTranslatePropertyBijective(t *testing.T) {
	a := space(t)
	base := uint64(0x40000000)
	f := func(x, y uint32) bool {
		va1 := base + uint64(x)%(2*HugePageBytes)
		va2 := base + uint64(y)%(2*HugePageBytes)
		p1, err1 := a.Translate(va1)
		p2, err2 := a.Translate(va2)
		if err1 != nil || err2 != nil {
			return false
		}
		return (va1 == va2) == (p1 == p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTranslateRange(t *testing.T) {
	a := space(t)
	if _, err := a.TranslateRange(0x10000, 64); err != nil {
		t.Fatal(err)
	}
	end := uint64(0x10000) + 64*PageBytes - 8
	if _, err := a.TranslateRange(end, 64); err == nil {
		t.Error("range crossing mapping end accepted")
	}
}

func TestStrideGather(t *testing.T) {
	a := space(t)
	// Regular mapping: gather degenerates to the address itself.
	vs, err := a.StrideGather(0x10040)
	if err != nil || len(vs) != 1 || vs[0] != 0x10040 {
		t.Fatalf("regular gather: %v %v", vs, err)
	}
	// Stride-mode mapping: eight same-sector addresses, one per line.
	va := uint64(0x40000000) + 2*64 + 5*8 // line 2, sector 5
	vs, err = a.StrideGather(va)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 8 {
		t.Fatalf("gather size %d", len(vs))
	}
	found := false
	for i, v := range vs {
		if v%64 != 5*8 {
			t.Fatalf("member %d has wrong sector offset: %#x", i, v)
		}
		if v == va {
			found = true
		}
	}
	if !found {
		t.Fatal("gather does not include the probe address")
	}
}

func TestAllocator(t *testing.T) {
	al := NewAllocator(0x1234)
	a := al.Alloc(100, false)
	if a%HugePageBytes != 0 {
		t.Fatalf("first allocation base %#x not huge-aligned start", a)
	}
	b := al.Alloc(PageBytes, false)
	if b < a+PageBytes {
		t.Fatal("allocations overlap")
	}
	h := al.Alloc(3*HugePageBytes, true)
	if h%HugePageBytes != 0 {
		t.Fatalf("huge allocation misaligned: %#x", h)
	}
	next := al.Alloc(PageBytes, false)
	if next < h+3*HugePageBytes {
		t.Fatal("huge allocation size not honored")
	}
}

func TestNewRejectsInvalidRemap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid remap accepted")
		}
	}()
	New(mc.StrideRemap{SectorBytes: 7, Reach: 3, LineBytes: 64})
}

func TestGatherAgreesWithDesignLayout(t *testing.T) {
	// Cross-module integration: for line-sized records, the OS layer's
	// stride gather and the design layer's gather group must name the same
	// lines — the contract that lets an IMDB lay out records for SAM.
	d := design.New(design.SAMEn, design.Options{})
	schema := imdb.Schema{Name: "T", Fields: 8, Records: 256} // 64B records
	p := design.NewPlacer(d, schema, 0, false)

	a := New(mc.StrideRemap{
		SectorBytes: d.Gran.SectorBytes,
		Reach:       d.Gran.Reach,
		LineBytes:   d.Mem.Geometry.LineBytes,
	})
	if err := a.Map(Mapping{VirtBase: 0, PhysBase: 0, Bytes: HugePageBytes, Huge: true, StrideMode: true}); err != nil {
		t.Fatal(err)
	}

	for _, rec := range []int{0, 7, 64, 200} {
		field := 5
		txn := p.ReadField(rec, field)
		if txn.Group() == nil {
			t.Fatal("no gather group")
		}
		va := uint64(rec*64 + field*imdb.FieldBytes)
		gathered, err := a.StrideGather(va)
		if err != nil {
			t.Fatal(err)
		}
		if len(gathered) != len(txn.Group().Fills) {
			t.Fatalf("rec %d: OS gather %d lines, design gather %d", rec, len(gathered), len(txn.Group().Fills))
		}
		lines := map[uint64]bool{}
		for _, f := range txn.Group().Fills {
			lines[f.LineAddr] = true
		}
		for _, g := range gathered {
			if !lines[g&^63] {
				t.Fatalf("rec %d: OS gather names line %#x the design gather lacks", rec, g&^63)
			}
		}
	}
}
