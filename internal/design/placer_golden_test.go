package design

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"sam/internal/imdb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/placer_addrs.golden")

const placerGolden = "testdata/placer_addrs.golden"

// goldenPlacerConfig is one placer the address golden covers.
type goldenPlacerConfig struct {
	kind     Kind
	opts     Options
	channels int // 0 keeps the design's channel count
	colStore bool
}

func (c goldenPlacerConfig) design() *Design {
	d := New(c.kind, c.opts)
	if c.channels != 0 {
		d.Mem.Geometry.Channels = c.channels
	}
	return d
}

func (c goldenPlacerConfig) name() string {
	d := c.design()
	s := fmt.Sprintf("%s/%s/reach%d/ch%d", d.Name, c.opts.Canon(c.kind).Substrate, d.Gran.Reach, d.Mem.Geometry.Channels)
	if c.colStore {
		s += "/colstore"
	}
	return s
}

// goldenPlacerConfigs covers every design kind at its defaults, the ideal
// column store, the column engines on the other substrate, the smaller
// gather reaches and a multi-channel geometry.
func goldenPlacerConfigs() []goldenPlacerConfig {
	var cs []goldenPlacerConfig
	for _, k := range []Kind{Baseline, Ideal, SAMSub, SAMIO, SAMEn, GSDRAM, GSDRAMecc, RCNVMBit, RCNVMWd} {
		cs = append(cs, goldenPlacerConfig{kind: k})
	}
	cs = append(cs, goldenPlacerConfig{kind: Ideal, colStore: true})
	cs = append(cs,
		goldenPlacerConfig{kind: SAMSub, opts: Options{Substrate: NVM, SubstrateSet: true}},
		goldenPlacerConfig{kind: RCNVMBit, opts: Options{Substrate: DRAM, SubstrateSet: true}},
		goldenPlacerConfig{kind: RCNVMWd, opts: Options{Substrate: DRAM, SubstrateSet: true}},
	)
	for _, k := range []Kind{SAMSub, RCNVMWd, SAMEn, GSDRAM} {
		cs = append(cs, goldenPlacerConfig{kind: k, opts: Options{Gran: Gran16}})
	}
	for _, k := range []Kind{SAMSub, SAMEn, GSDRAMecc} {
		cs = append(cs, goldenPlacerConfig{kind: k, opts: Options{Gran: Gran8}})
	}
	for _, k := range []Kind{Baseline, SAMSub, SAMEn} {
		cs = append(cs, goldenPlacerConfig{kind: k, channels: 4})
	}
	return cs
}

// goldenTable is one laid-out table: its schema (record counts that leave
// partial gather groups and, for the column engines, cross stripes), its
// table slot, the fields sampled per record, and the records appended after
// BindTable.
type goldenTable struct {
	schema   imdb.Schema
	slot     int
	fields   []int
	appended int
}

func goldenTables() []goldenTable {
	all := func(n int) []int {
		fs := make([]int, n)
		for i := range fs {
			fs[i] = i
		}
		return fs
	}
	return []goldenTable{
		{schema: imdb.Ta(150), slot: 0, fields: []int{0, 1, 7, 8, 10, 63, 64, 127}, appended: 5},
		{schema: imdb.Tb(525), slot: 1, fields: all(16), appended: 5},
		// 40B records do not divide a row: a chunk can end past the row's
		// last whole record (RC-NVM's 25 per 1KB row, in stripe 1's odd
		// bank), a stripe is not a whole number of chunks (SAM-sub at reach
		// 2: 409 records), and a gather's last members spill into the
		// next stripe.
		{schema: imdb.Schema{Name: "T5", Fields: 5, Records: 420}, slot: 2, fields: all(5), appended: 5},
	}
}

// scanAddrs returns, per record, the field addresses column-at-a-time scans
// yield, in the executor's order: batches of 100 records, each sampled
// field read over the whole batch, then every third record of the batch
// written through the last sampled field.
func scanAddrs(p *Placer, records int, fields []int) [][]uint64 {
	out := make([][]uint64, records)
	for start := 0; start < records; start += 100 {
		end := min(start+100, records)
		for _, f := range fields {
			for rec := start; rec < end; rec++ {
				addr, _ := p.Field(rec, f)
				out[rec] = append(out[rec], addr)
			}
		}
		for rec := start; rec < end; rec += 3 {
			addr, _ := p.Field(rec, fields[len(fields)-1])
			out[rec] = append(out[rec], addr)
		}
	}
	return out
}

// placerRecordBytes serializes everything the placer yields for one record:
// its scan addresses, every sampled field's read and write access with the
// gather serving a miss, then the whole-record read and write
// transactions.
func placerRecordBytes(b []byte, p *Placer, rec int, fields []int, scanned []uint64) []byte {
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	for _, a := range scanned {
		u(a)
	}
	bit := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	// access serializes one access in the layout the golden was taken in:
	// address, size, write, then the gather flag twice (the transaction's
	// sectored flag and whether it carried a gather) and the gather.
	access := func(addr uint64, size int, write bool, g *StrideGroup) {
		u(addr)
		u(uint64(size))
		bit(write)
		bit(g != nil)
		bit(g != nil)
		if g == nil {
			return
		}
		u(g.ReqAddr)
		u(uint64(g.Lane))
		bit(g.Gang)
		u(uint64(g.Bursts))
		u(uint64(len(g.Fills)))
		for _, f := range g.Fills {
			u(f.LineAddr)
			u(f.Sectors)
		}
	}
	for _, f := range fields {
		addr, gathers := p.Field(rec, f)
		var g *StrideGroup
		if gathers {
			g = p.Gather(rec, f)
		}
		access(addr, imdb.FieldBytes, false, g)
		access(addr, imdb.FieldBytes, true, g)
	}
	for _, t := range p.ReadRecord(rec) {
		access(t.Addr, t.Size, t.Write, nil)
	}
	for _, t := range p.WriteRecord(rec) {
		access(t.Addr, t.Size, t.Write, nil)
	}
	return b
}

// placerDigest lays tb out under cfg, binds the placer to a table with
// tb.appended records inserted, and returns the digest of every record's
// bytes plus a one-byte fingerprint per record, which locates a mismatch.
func placerDigest(cfg goldenPlacerConfig, tb goldenTable) (digest string, prints []byte) {
	p := NewPlacer(cfg.design(), tb.schema, tb.slot, cfg.colStore)
	t := imdb.NewTable(tb.schema, 1)
	p.BindTable(t)
	row := make([]uint64, tb.schema.Fields)
	for range tb.appended {
		t.Append(row)
	}
	scanned := scanAddrs(p, t.Records(), tb.fields)
	all := sha256.New()
	var buf []byte
	for rec := 0; rec < t.Records(); rec++ {
		buf = placerRecordBytes(buf[:0], p, rec, tb.fields, scanned[rec])
		all.Write(buf)
		sum := sha256.Sum256(buf)
		prints = append(prints, sum[0])
	}
	return hex.EncodeToString(all.Sum(nil)), prints
}

// TestPlacerAddressGolden pins the placer's address arithmetic: field
// addresses in scan order and out of it, record transactions and every
// gather (request address, lane, gang,
// bursts, fills) of every design kind and the ideal column store, on Ta, Tb
// and a 40B-record table, through partial groups past Schema.Records after
// BindTable and Append. The digests were taken from the division-based
// encoder; a rewrite of the arithmetic must reproduce them.
func TestPlacerAddressGolden(t *testing.T) {
	var lines []string
	for _, cfg := range goldenPlacerConfigs() {
		for _, tb := range goldenTables() {
			digest, prints := placerDigest(cfg, tb)
			lines = append(lines, fmt.Sprintf("%s/%s %s %s", cfg.name(), tb.schema.Name, digest, hex.EncodeToString(prints)))
		}
	}
	if *updateGolden {
		out := "# name sha256-of-all-records per-record-fingerprints (go test ./internal/design -run PlacerAddressGolden -update)\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(placerGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(placerGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		fs := strings.Fields(sc.Text())
		if len(fs) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fs[0]] = [2]string{fs[1], fs[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Errorf("golden has %d placers, test covers %d", len(want), len(lines))
	}
	for _, line := range lines {
		fs := strings.Fields(line)
		name, digest, prints := fs[0], fs[1], fs[2]
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: missing from %s", name, placerGolden)
			continue
		case w[0] == digest:
			continue
		}
		got, _ := hex.DecodeString(prints)
		ref, _ := hex.DecodeString(w[1])
		rec := -1
		for i := range min(len(got), len(ref)) {
			if got[i] != ref[i] {
				rec = i
				break
			}
		}
		switch {
		case rec >= 0:
			t.Errorf("%s: record %d's transactions or gather differ from the golden", name, rec)
		case len(got) != len(ref):
			t.Errorf("%s: %d records, golden has %d", name, len(got), len(ref))
		default:
			t.Errorf("%s: digest differs from the golden (no record fingerprint does)", name)
		}
	}
}
