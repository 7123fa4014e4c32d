package bpagg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"bpagg/internal/bitvec"
	"bpagg/internal/faultinject"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
)

// Columns and tables serialize to a small little-endian binary format, so a
// packed column can be written once and mapped back without re-packing.
// The format is versioned; readers reject unknown versions and validate
// every length and HBP delimiter invariant before adopting the data.
//
//	column  := magic version layout k tau n nullFlag [nullWords]
//	           group* zoneFlag [zMin* zMax*]
//	group   := wordCount word*
//	table   := magic version columnCount (nameLen name column)*
//
// Zone maps (per-segment min/max used for scan pruning) serialize with the
// column so a reloaded table scans as fast as a freshly packed one.

const (
	colMagic   uint32 = 0x42504147 // "BPAG"
	tableMagic uint32 = 0x42505442 // "BPTB"
	ioVersion  uint16 = 1
)

// WriteTo serializes the column. It implements io.WriterTo.
func (c *Column) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	hdr := []any{
		colMagic, ioVersion, uint8(c.layout),
		uint16(c.k), uint16(c.GroupBits()), uint64(c.Len()),
	}
	nullFlag := uint8(0)
	if c.nulls != nil {
		nullFlag = 1
	}
	hdr = append(hdr, nullFlag)
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	if c.nulls != nil {
		if err := writeWords(bw, c.nulls.Words()); err != nil {
			return cw.n, err
		}
	}
	groups := c.rawGroups()
	for _, g := range groups {
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(g))); err != nil {
			return cw.n, err
		}
		if err := writeWords(bw, g); err != nil {
			return cw.n, err
		}
	}
	zMin, zMax := c.rawZones()
	zoneFlag := uint8(0)
	if zMin != nil && len(zMin) == c.numSegments() {
		zoneFlag = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, zoneFlag); err != nil {
		return cw.n, err
	}
	if zoneFlag == 1 {
		if err := writeWords(bw, zMin); err != nil {
			return cw.n, err
		}
		if err := writeWords(bw, zMax); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadColumn deserializes a column written by WriteTo. It reads exactly
// the column's bytes, so multiple columns may share one stream (callers
// with unbuffered sources should wrap the whole stream in a bufio.Reader
// themselves).
func ReadColumn(r io.Reader) (*Column, error) {
	br := r
	var (
		magic    uint32
		version  uint16
		layout   uint8
		k, tau   uint16
		n        uint64
		nullFlag uint8
	)
	for _, p := range []any{&magic, &version, &layout, &k, &tau, &n, &nullFlag} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("bpagg: reading column header: %w", err)
		}
	}
	if magic != colMagic {
		return nil, fmt.Errorf("bpagg: bad column magic %#x", magic)
	}
	if version != ioVersion {
		return nil, fmt.Errorf("bpagg: unsupported column version %d", version)
	}
	if Layout(layout) != VBP && Layout(layout) != HBP {
		return nil, fmt.Errorf("bpagg: unknown layout %d", layout)
	}
	if k < 1 || k > 64 || n > 1<<56 {
		return nil, fmt.Errorf("bpagg: implausible header (k=%d n=%d)", k, n)
	}

	var nulls *bitvec.Bitmap
	if nullFlag == 1 {
		words, err := readWords(br, (int(n)+63)/64)
		if err != nil {
			return nil, fmt.Errorf("bpagg: reading null bitmap: %w", err)
		}
		nulls = bitvec.FromWords(int(n), words)
	} else if nullFlag != 0 {
		return nil, fmt.Errorf("bpagg: bad null flag %d", nullFlag)
	}

	if tau == 0 || int(tau) > int(k) {
		return nil, fmt.Errorf("bpagg: implausible tau %d for k %d", tau, k)
	}
	numGroups := (int(k) + int(tau) - 1) / int(tau)
	groups := make([][]uint64, numGroups)
	for g := range groups {
		var count uint64
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("bpagg: reading group %d size: %w", g, err)
		}
		if count > 1<<40 {
			return nil, fmt.Errorf("bpagg: implausible group size %d", count)
		}
		words, err := readWords(br, int(count))
		if err != nil {
			return nil, fmt.Errorf("bpagg: reading group %d: %w", g, err)
		}
		groups[g] = words
	}

	col := &Column{layout: Layout(layout), k: int(k), nulls: nulls}
	var err error
	if col.layout == VBP {
		col.v, err = vbp.FromWords(int(k), int(tau), int(n), groups)
	} else {
		col.h, err = hbp.FromWords(int(k), int(tau), int(n), groups)
	}
	if err != nil {
		return nil, fmt.Errorf("bpagg: %w", err)
	}

	var zoneFlag uint8
	if err := binary.Read(br, binary.LittleEndian, &zoneFlag); err != nil {
		return nil, fmt.Errorf("bpagg: reading zone flag: %w", err)
	}
	switch zoneFlag {
	case 0:
	case 1:
		nseg := col.numSegments()
		zMin, err := readWords(br, nseg)
		if err != nil {
			return nil, fmt.Errorf("bpagg: reading zone minima: %w", err)
		}
		zMax, err := readWords(br, nseg)
		if err != nil {
			return nil, fmt.Errorf("bpagg: reading zone maxima: %w", err)
		}
		if err := col.setZones(zMin, zMax); err != nil {
			return nil, fmt.Errorf("bpagg: %w", err)
		}
		// Adopted zones are sound but not trusted as exact; recompute the
		// per-segment aggregate caches from the data so a reloaded column
		// serves the fused path as well as a freshly packed one.
		col.rebuildSegmentAggregates()
	default:
		return nil, fmt.Errorf("bpagg: bad zone flag %d", zoneFlag)
	}
	return col, nil
}

// numSegments returns the column's physical segment count.
func (c *Column) numSegments() int {
	if c.layout == VBP {
		return c.v.NumSegments()
	}
	return c.h.NumSegments()
}

// rawZones exposes the per-segment zone arrays for serialization.
func (c *Column) rawZones() (zMin, zMax []uint64) {
	if c.layout == VBP {
		return c.v.Zones()
	}
	return c.h.Zones()
}

// setZones adopts validated zone arrays during deserialization.
func (c *Column) setZones(zMin, zMax []uint64) error {
	if c.layout == VBP {
		return c.v.SetZones(zMin, zMax)
	}
	return c.h.SetZones(zMin, zMax)
}

// rebuildSegmentAggregates recomputes the exact per-segment zone and sum
// caches from the packed data (deserialization path).
func (c *Column) rebuildSegmentAggregates() {
	if c.layout == VBP {
		c.v.RebuildSegmentAggregates()
	} else {
		c.h.RebuildSegmentAggregates()
	}
}

// WriteTo serializes the table with its column names. It implements
// io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if err := binary.Write(cw, binary.LittleEndian, tableMagic); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, ioVersion); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(t.names))); err != nil {
		return cw.n, err
	}
	for _, name := range t.names {
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(name))); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(cw, name); err != nil {
			return cw.n, err
		}
		if _, err := t.cols[name].WriteTo(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadTable deserializes a table written by Table.WriteTo.
func ReadTable(r io.Reader) (*Table, error) {
	var (
		magic   uint32
		version uint16
		count   uint32
	)
	for _, p := range []any{&magic, &version, &count} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("bpagg: reading table header: %w", err)
		}
	}
	if magic != tableMagic {
		return nil, fmt.Errorf("bpagg: bad table magic %#x", magic)
	}
	if version != ioVersion {
		return nil, fmt.Errorf("bpagg: unsupported table version %d", version)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("bpagg: implausible column count %d", count)
	}
	t := NewTable()
	rows := -1
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("bpagg: reading column name length: %w", err)
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("bpagg: implausible column name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return nil, fmt.Errorf("bpagg: reading column name: %w", err)
		}
		col, err := ReadColumn(r)
		if err != nil {
			return nil, err
		}
		name := string(nameBuf)
		if _, dup := t.cols[name]; dup {
			return nil, fmt.Errorf("bpagg: duplicate column %q", name)
		}
		if rows == -1 {
			rows = col.Len()
		} else if col.Len() != rows {
			return nil, fmt.Errorf("bpagg: column %q has %d rows, want %d", name, col.Len(), rows)
		}
		t.cols[name] = col
		t.names = append(t.names, name)
	}
	if rows > 0 {
		t.rows = rows
	}
	return t, nil
}

// rawGroups exposes the packed word slices for serialization.
func (c *Column) rawGroups() [][]uint64 {
	if c.layout == VBP {
		gs := c.v.Groups()
		out := make([][]uint64, len(gs))
		for g := range gs {
			out[g] = gs[g].Words
		}
		return out
	}
	out := make([][]uint64, c.h.NumGroups())
	for g := range out {
		out[g] = c.h.GroupWords(g)
	}
	return out
}

func writeWords(w io.Writer, words []uint64) error {
	buf := make([]byte, 8*1024)
	for len(words) > 0 {
		chunk := len(words)
		if chunk > 1024 {
			chunk = 1024
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], words[i])
		}
		if _, err := w.Write(buf[:8*chunk]); err != nil {
			return err
		}
		words = words[chunk:]
	}
	return nil
}

// readWords reads count little-endian words. The result grows with the
// bytes actually read, never with the claimed count, so a corrupt header
// that lies about sizes fails at EOF instead of exhausting memory.
func readWords(r io.Reader, count int) ([]uint64, error) {
	if err := faultinject.Fire(faultinject.SiteIOReadWords); err != nil {
		return nil, err
	}
	initial := count
	if initial > 64*1024 {
		initial = 64 * 1024
	}
	words := make([]uint64, 0, initial)
	buf := make([]byte, 8*min(count, 1024))
	for len(words) < count {
		chunk := count - len(words)
		if chunk > 1024 {
			chunk = 1024
		}
		if _, err := io.ReadFull(r, buf[:8*chunk]); err != nil {
			return nil, err
		}
		for j := 0; j < chunk; j++ {
			words = append(words, binary.LittleEndian.Uint64(buf[8*j:]))
		}
	}
	return words, nil
}

// countWriter tracks bytes written for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
