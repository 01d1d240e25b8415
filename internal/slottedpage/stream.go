package slottedpage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// StreamInfo carries a store's metadata without its pages, as read by
// StreamPages before the page callback starts.
type StreamInfo struct {
	Config      Config
	NumVertices uint64
	NumEdges    uint64
	NumPages    int
	RVT         []RVTEntry
	Kinds       []Kind
}

// StreamPages reads a store file page by page in constant memory: the
// header and side tables load first, then fn receives every page in pid
// order over a single reused buffer (the Page is invalid after fn returns).
// The trailing CRC is validated after the last page; a checksum failure
// returns ErrChecksum even though fn has already seen the data, so callers
// that cannot tolerate torn input should buffer their effects.
//
// This is how out-of-core tools scan stores bigger than memory; the GTS
// engine itself keeps the simulated-storage path separate.
func StreamPages(r io.Reader, fn func(info *StreamInfo, pid PageID, pg Page) error) (*StreamInfo, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := &crcReader{r: br, crc: crc32.NewIEEE()}
	info, err := readMeta(cr)
	if err != nil {
		return nil, err
	}
	// Skip the home index (2 x uint32 per vertex).
	if info.NumVertices > math.MaxInt64/8 {
		return nil, fmt.Errorf("slottedpage: %d vertices overflow the home index", info.NumVertices)
	}
	if _, err := io.CopyN(io.Discard, cr, int64(info.NumVertices)*8); err != nil {
		return nil, fmt.Errorf("slottedpage: skipping home index: %w", err)
	}

	buf := make([]byte, info.Config.PageSize)
	for pid := 0; pid < info.NumPages; pid++ {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("slottedpage: reading page %d: %w", pid, err)
		}
		if fn != nil {
			if err := fn(info, PageID(pid), Page{buf: buf, cfg: &info.Config}); err != nil {
				return nil, err
			}
		}
	}
	want := cr.crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("slottedpage: reading checksum: %w", err)
	}
	if got != want {
		return info, ErrChecksum
	}
	return info, nil
}

// StreamFile is StreamPages over a file path.
func StreamFile(path string, fn func(info *StreamInfo, pid PageID, pg Page) error) (*StreamInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return StreamPages(f, fn)
}
