package slottedpage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// fuzzGraph builds a small valid graph whose serialization seeds the fuzz
// corpora with structurally interesting bytes (SP pages, an LP run, home
// index, trailing CRC).
func fuzzGraph(t interface{ Fatalf(string, ...any) }) *Graph {
	g, err := Build(figure1Graph(60), tinyConfig())
	if err != nil {
		t.Fatalf("building seed graph: %v", err)
	}
	return g
}

func encodeGraph(t interface{ Fatalf(string, ...any) }, g *Graph) []byte {
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("encoding seed graph: %v", err)
	}
	return buf.Bytes()
}

// FuzzStoreRead feeds arbitrary bytes to the store decoder. Its contract on
// hostile input: return an error — never panic, never read out of bounds,
// never allocate unboundedly from lying header fields. A graph Read accepts
// must pass full structural validation and re-encode.
func FuzzStoreRead(f *testing.F) {
	valid := encodeGraph(f, fuzzGraph(f))
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated mid-CRC
	f.Add(valid[:9])            // truncated mid-header
	for i := 0; i < len(valid); i += 997 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted graphs must be internally consistent and re-encodable.
		if err := g.Validate(); err != nil {
			t.Fatalf("Read accepted a graph that fails Validate: %v", err)
		}
		if _, err := g.WriteTo(io.Discard); err != nil {
			t.Fatalf("re-encoding accepted graph: %v", err)
		}
	})
}

// TestReadRefusesHugePageCount: a page count no input could back is an error
// from Read, not an allocation sized by it (with 2^63 pages a decoder that
// sized its tables by the header panicked in make).
func TestReadRefusesHugePageCount(t *testing.T) {
	for _, n := range []uint64{1<<40 + 3, 1 << 63} {
		data := encodeGraph(t, fuzzGraph(t))
		binary.LittleEndian.PutUint64(data[len(fileMagic)+8*8:], n) // the ninth header word
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("Read accepted a header of %d pages", n)
		}
	}
}

// FuzzPageValidate feeds arbitrary bytes to the standalone page validator,
// which must classify without panicking or over-reading.
func FuzzPageValidate(f *testing.F) {
	g := fuzzGraph(f)
	for pid := 0; pid < g.NumPages(); pid++ {
		f.Add(append([]byte(nil), g.PageBytes(PageID(pid))...))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := tinyConfig()
		err := ValidatePage(data, &cfg)
		if len(data) != cfg.PageSize && err == nil {
			t.Fatalf("validated a %d-byte page under PageSize %d", len(data), cfg.PageSize)
		}
	})
}

// FuzzStoreRoundTrip derives a graph from the fuzz input, round-trips it
// through the store codec, and checks two properties: the round trip is
// byte-identical, and any single corrupted byte is rejected (the trailing
// CRC-32 catches every one-byte flip).
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{2, 2, 3, 60}, uint16(0))
	f.Add([]byte{0, 1, 0, 1, 7}, uint16(11))
	f.Fuzz(func(t *testing.T, degrees []byte, flipAt uint16) {
		if len(degrees) == 0 || len(degrees) > 64 {
			return
		}
		// Byte i is vertex i's out-degree; neighbors wrap around the ring.
		adj := make([][]uint64, len(degrees))
		for v := range adj {
			deg := int(degrees[v])
			for j := 0; j < deg; j++ {
				adj[v] = append(adj[v], uint64((v+j+1)%len(degrees)))
			}
		}
		g, err := Build(adjSource{adj: adj}, tinyConfig())
		if err != nil {
			return // some shapes legitimately exceed the tiny config
		}
		enc := encodeGraph(t, g)
		back, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !bytes.Equal(enc, encodeGraph(t, back)) {
			t.Fatal("round trip is not byte-identical")
		}
		// Flip one byte anywhere: the decoder must reject the file.
		bad := append([]byte(nil), enc...)
		bad[int(flipAt)%len(bad)] ^= 0x01
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("decoder accepted a file with byte %d corrupted", int(flipAt)%len(bad))
		} else if errors.Is(err, ErrChecksum) {
			return // the usual catch; structural errors are fine too
		}
	})
}
