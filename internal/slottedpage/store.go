package slottedpage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// File persistence for a slotted-page graph. The layout is a fixed header
// (magic, version, config, counts), the RVT and per-vertex home index, the
// raw pages, and a trailing CRC-32 over everything before it.

var fileMagic = [8]byte{'G', 'T', 'S', 'P', 'A', 'G', 'E', '1'}

// ErrChecksum reports that a store file failed CRC validation.
var ErrChecksum = errors.New("slottedpage: checksum mismatch")

type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// WriteTo serializes the graph. It returns the byte count written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if _, err := cw.Write(fileMagic[:]); err != nil {
		return 0, err
	}
	hdr := []uint64{
		uint64(g.cfg.PageSize), uint64(g.cfg.PIDBytes), uint64(g.cfg.SlotBytes),
		uint64(g.cfg.VIDBytes), uint64(g.cfg.OffBytes), uint64(g.cfg.SizeBytes),
		g.numVertices, g.numEdges, uint64(len(g.pages)),
	}
	for _, h := range hdr {
		if err := write(h); err != nil {
			return 0, err
		}
	}
	for _, e := range g.rvt {
		if err := write(e.StartVID); err != nil {
			return 0, err
		}
		if err := write(e.LPSeq); err != nil {
			return 0, err
		}
	}
	if err := write(kindBytes(g.kinds)); err != nil {
		return 0, err
	}
	if err := write(g.homePID); err != nil {
		return 0, err
	}
	if err := write(g.homeSlot); err != nil {
		return 0, err
	}
	for _, pg := range g.pages {
		if _, err := cw.Write(pg); err != nil {
			return 0, err
		}
	}
	sum := cw.crc.Sum32()
	if err := binary.Write(bw, binary.LittleEndian, sum); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return g.encodedSize(), nil
}

func kindBytes(ks []Kind) []byte {
	b := make([]byte, len(ks))
	for i, k := range ks {
		b[i] = byte(k)
	}
	return b
}

// encodedSize reports the serialized size in bytes.
func (g *Graph) encodedSize() int64 {
	n := int64(8)                  // magic
	n += 9 * 8                     // header words
	n += int64(len(g.rvt)) * 12    // RVT entries
	n += int64(len(g.kinds))       // kinds
	n += int64(len(g.homePID)) * 8 // home index (two uint32 arrays)
	n += int64(len(g.pages)) * int64(g.cfg.PageSize)
	n += 4 // CRC
	return n
}

// readChunk is the allocation granularity for header-declared arrays. A
// hostile header can declare any element count; allocating per chunk as
// bytes actually arrive means a truncated or lying stream fails with a
// read error after at most one chunk of waste, never an OOM.
const readChunk = 1 << 16

// readUint32s reads count little-endian uint32s with chunked allocation.
func readUint32s(r io.Reader, count uint64) ([]uint32, error) {
	out := make([]uint32, 0, min(count, readChunk))
	for count > 0 {
		n := min(count, readChunk)
		buf := make([]uint32, n)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		count -= n
	}
	return out, nil
}

// readMeta reads a store's metadata — magic, header, RVT and kind table —
// into a Graph that Read goes on to fill. Every header field is checked
// against its bound before anything is sized by it, and the tables grow
// chunk by chunk as their bytes arrive, so a lying page count fails at the
// end of the input instead of allocating for it.
func readMeta(cr io.Reader) (*Graph, error) {
	read := func(v any) error { return binary.Read(cr, binary.LittleEndian, v) }
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("slottedpage: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("slottedpage: bad magic %q", magic[:])
	}
	var hdr [9]uint64
	for i := range hdr {
		if err := read(&hdr[i]); err != nil {
			return nil, fmt.Errorf("slottedpage: reading header: %w", err)
		}
	}
	for _, w := range hdr[:6] {
		if w > uint64(maxPageSize) {
			return nil, fmt.Errorf("slottedpage: header field %d out of range", w)
		}
	}
	g := &Graph{
		cfg: Config{
			PageSize: int(hdr[0]), PIDBytes: int(hdr[1]), SlotBytes: int(hdr[2]),
			VIDBytes: int(hdr[3]), OffBytes: int(hdr[4]), SizeBytes: int(hdr[5]),
		},
		numVertices: hdr[6],
		numEdges:    hdr[7],
	}
	if err := g.cfg.Validate(); err != nil {
		return nil, err
	}
	numPages := hdr[8]
	if numPages > g.cfg.MaxPages() {
		return nil, fmt.Errorf("slottedpage: %d pages exceed p=%d capacity %d",
			numPages, g.cfg.PIDBytes, g.cfg.MaxPages())
	}
	g.rvt = make([]RVTEntry, 0, min(numPages, readChunk))
	for i := uint64(0); i < numPages; i++ {
		var e RVTEntry
		if err := read(&e.StartVID); err != nil {
			return nil, fmt.Errorf("slottedpage: reading RVT: %w", err)
		}
		if err := read(&e.LPSeq); err != nil {
			return nil, fmt.Errorf("slottedpage: reading RVT: %w", err)
		}
		g.rvt = append(g.rvt, e)
	}
	g.kinds = make([]Kind, 0, min(numPages, readChunk))
	for rest := numPages; rest > 0; {
		kb := make([]byte, min(rest, readChunk))
		if err := read(kb); err != nil {
			return nil, fmt.Errorf("slottedpage: reading kinds: %w", err)
		}
		for _, b := range kb {
			if k := Kind(b); k != SmallPage && k != LargePage {
				return nil, fmt.Errorf("%w: unknown page kind %d", ErrInvalidPage, b)
			}
			g.kinds = append(g.kinds, Kind(b))
		}
		rest -= uint64(len(kb))
	}
	return g, nil
}

// Read deserializes a graph written by WriteTo, validating its whole-file
// checksum, per-page checksums, and full structural consistency
// (Graph.Validate). It is safe on arbitrary input: malformed, truncated,
// or hostile streams produce an error, never a panic or an unbounded
// allocation.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := &crcReader{r: br, crc: crc32.NewIEEE()}
	g, err := readMeta(cr)
	if err != nil {
		return nil, err
	}
	for i, k := range g.kinds {
		if k == SmallPage {
			g.spIDs = append(g.spIDs, PageID(i))
		} else {
			g.lpIDs = append(g.lpIDs, PageID(i))
		}
	}
	if g.homePID, err = readUint32s(cr, g.numVertices); err != nil {
		return nil, fmt.Errorf("slottedpage: reading home PIDs: %w", err)
	}
	if g.homeSlot, err = readUint32s(cr, g.numVertices); err != nil {
		return nil, fmt.Errorf("slottedpage: reading home slots: %w", err)
	}
	g.pages = make([][]byte, 0, len(g.rvt))
	for i := range g.rvt {
		pg := make([]byte, g.cfg.PageSize)
		if _, err := io.ReadFull(cr, pg); err != nil {
			return nil, fmt.Errorf("slottedpage: reading page %d: %w", i, err)
		}
		g.pages = append(g.pages, pg)
	}
	want := cr.crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("slottedpage: reading checksum: %w", err)
	}
	if got != want {
		return nil, ErrChecksum
	}
	g.dec = newDecoder(&g.cfg, g.rvt)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.computeChecksums()
	return g, nil
}

// WriteFile serializes the graph to path, replacing any existing file.
func (g *Graph) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile deserializes a graph from path.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
