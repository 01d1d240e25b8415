package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
)

// vector is one numeric slice field lifted out of a result struct.
type vector struct {
	name   string
	values any
}

// liftVectors returns a shallow copy of the result struct out points to with
// every non-nil numeric vector declared directly on it set to nil, and those
// vectors in field order. Such a field is untagged, exported and at depth 0,
// so encoding/json names it by its Go name and lets it shadow any promoted
// field (BFSResult.Levels over Metrics.Levels); anything else — embedded
// structs, tagged fields, other element types — stays for encoding/json.
func liftVectors(out any) (any, []vector) {
	src := reflect.ValueOf(out)
	if src.Kind() != reflect.Pointer || src.IsNil() || src.Elem().Kind() != reflect.Struct {
		return out, nil
	}
	cp := reflect.New(src.Elem().Type())
	cp.Elem().Set(src.Elem())
	var vecs []vector
	for i := 0; i < cp.Elem().NumField(); i++ {
		sf, f := cp.Elem().Type().Field(i), cp.Elem().Field(i)
		if f.Kind() != reflect.Slice || f.IsNil() || !sf.IsExported() || sf.Tag != "" {
			continue
		}
		switch v := f.Interface(); v.(type) {
		case []int16, []int32, []int64, []uint32, []float32, []float64, []bool:
			vecs = append(vecs, vector{sf.Name, v})
			f.SetZero()
		}
	}
	return cp.Interface(), vecs
}

// resultBytes is what res keeps alive beyond jobEntryBytes: its output's
// vectors, the fields liftVectors lifts, and its metrics' per-level slices.
func resultBytes(res *Result) int64 {
	m := res.Metrics
	n := int64(8*cap(m.LevelPages) + 8*cap(m.LevelBytes) + 16*cap(m.LevelDirs))
	_, vecs := liftVectors(res.Output)
	for _, v := range vecs {
		rv := reflect.ValueOf(v.values)
		n += int64(rv.Len()) * int64(rv.Type().Elem().Size())
	}
	return n
}

// Where a result vector sits in the indented job document: the job's fields
// are at depth 1, "result"'s at depth 2, a vector's elements at depth 3.
const (
	resultOpen = "\n  \"result\": {"
	fieldSep   = "\n    "
	elemSep    = "\n      "
)

// appendJobJSON appends job's status document, newline-terminated, exactly
// as json.Encoder with SetIndent("", "  ") writes it — which costs that
// encoder a reflect call per vector element and two copies of the document.
// Here encoding/json encodes the document without the result's numeric
// vectors (≈ 1 KB; every field rule stays its business) and strconv appends
// each vector where its null stands. A result encoding/json refuses (NaN or
// ±Inf in a float vector) is an error.
func appendJobJSON(dst []byte, job *Job) ([]byte, error) {
	req := job.Request()
	doc := map[string]any{
		"id":     job.ID(),
		"graph":  req.Graph,
		"algo":   req.Algo,
		"params": req.Params,
		"state":  job.State().String(),
	}
	res, err := job.Result()
	if err != nil {
		doc["error"] = err.Error()
	}
	var vecs []vector
	if res != nil {
		doc["cached"] = job.Cached()
		doc["latency_ms"] = float64(job.Latency().Microseconds()) / 1000
		doc["wall_ms"] = float64(res.Wall.Microseconds()) / 1000
		doc["virtual_seconds"] = res.Metrics.Elapsed.Seconds()
		doc["mteps"] = res.Metrics.MTEPS
		doc["result"], vecs = liftVectors(res.Output)
	}
	rest, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return dst, err
	}
	// Keys at one depth are unique and a newline inside a string is escaped,
	// so a key pattern can only match the key it names; fields come out in
	// declaration order, so one forward scan finds them all.
	copyThrough := func(key string) (ok bool) {
		var before []byte
		before, rest, ok = bytes.Cut(rest, []byte(key))
		dst = append(append(dst, before...), key...)
		return ok
	}
	for i, v := range vecs {
		if i == 0 && !copyThrough(resultOpen) || !copyThrough(fieldSep+`"`+v.name+`": null`) {
			return dst, fmt.Errorf("service: result field %s not where the job document should have it", v.name)
		}
		if dst, err = appendVector(dst[:len(dst)-len("null")], v.values); err != nil {
			return dst, err
		}
	}
	return append(append(dst, rest...), '\n'), nil
}

// appendVector appends a non-nil numeric slice as indented JSON; like
// encoding/json it refuses NaN and ±Inf.
func appendVector(dst []byte, values any) ([]byte, error) {
	switch v := values.(type) {
	case []int16:
		return appendInts(dst, v, len("-32768")), nil
	case []int32:
		return appendInts(dst, v, len("-2147483648")), nil
	case []int64:
		return appendInts(dst, v, len("-9223372036854775808")), nil
	case []uint32:
		return appendInts(dst, v, len("4294967295")), nil
	case []bool:
		return appendElems(dst, v, strconv.AppendBool), nil
	case []float32:
		return appendElems(dst, v, func(b []byte, x float32) []byte { return appendFloat(b, float64(x), 32) }), finite(v)
	case []float64:
		return appendElems(dst, v, func(b []byte, x float64) []byte { return appendFloat(b, x, 64) }), finite(v)
	}
	panic(fmt.Sprintf("service: appendVector(%T)", values))
}

// appendElems writes a vector's brackets, separators and indentation around
// what one appends for each element.
func appendElems[T any](dst []byte, v []T, one func([]byte, T) []byte) []byte {
	if len(v) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = one(append(dst, elemSep...), x)
	}
	return append(append(dst, fieldSep...), ']')
}

// intCells holds, for each x in [-1, 99] at index x+1, the bytes one
// element x adds inside a vector — a separator and its digits — in its first
// cell[15] bytes. BFS levels, hop counts and the labels of components whose
// least vertex ID is under 100 live in that range.
var intCells = func() (cells [101][16]byte) {
	for i := range cells {
		b := strconv.AppendInt([]byte(","+elemSep), int64(i-1), 10)
		cells[i][15] = byte(copy(cells[i][:], b))
	}
	return cells
}()

// digitPairs is "00" through "99": the two digits of each value below 100
// at twice its index.
var digitPairs = func() (b [200]byte) {
	for i := range 100 {
		b[2*i], b[2*i+1] = '0'+byte(i/10), '0'+byte(i%10)
	}
	return b
}()

// appendInts is appendElems for integers that print in at most widest
// bytes. It grows dst once, as if every element were that wide; then an
// element in intCells' range is one 16-byte store of its cell and an advance
// by the cell's length, and any other is written in place: one store of
// sepCell, the sign, and its digits two at a time from digitPairs, last
// pair first. Every element is written with a leading comma; the first
// one's becomes the '['.
func appendInts[T int16 | int32 | int64 | uint32](dst []byte, v []T, widest int) []byte {
	if len(v) == 0 {
		return append(dst, "[]"...)
	}
	start := len(dst)
	// The last cell store reaches 16 bytes past its element's start.
	dst = slices.Grow(dst, len(v)*(len(","+elemSep)+widest)+16)
	buf, n := dst[:cap(dst)], start
	for _, x := range v {
		if i := uint64(int64(x) + 1); i < uint64(len(intCells)) {
			c := &intCells[i]
			*(*[16]byte)(buf[n:]) = *c
			n += int(c[15])
			continue
		}
		*(*[len(sepCell)]byte)(buf[n:]) = sepCell
		n += len(sepCell)
		u := uint64(x)
		if x < 0 {
			buf[n] = '-'
			n++
			u = -uint64(int64(x)) // the magnitude, math.MinInt64's too
		}
		end := n + decimalLen(u)
		i := end
		for ; u >= 100; u /= 100 {
			d := u % 100 * 2
			i -= 2
			buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
		}
		if u >= 10 {
			buf[n], buf[n+1] = digitPairs[u*2], digitPairs[u*2+1]
		} else {
			buf[n] = byte('0' + u)
		}
		n = end
	}
	buf[start] = '['
	return append(append(buf[:n], fieldSep...), ']')
}

// sepCell is the separator every element but intCells' starts with.
var sepCell = [len("," + elemSep)]byte([]byte("," + elemSep))

// pow10[i] is 10^i, up to the largest a uint64 holds.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is the count of the decimal digits of u > 0: log10 from the
// bit length (1233/4096 is just under log10 2), corrected by one power of
// ten.
func decimalLen(u uint64) int {
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	return n
}

// finite returns encoding/json's own error for the first NaN or ±Inf in v.
func finite[T float32 | float64](v []T) error {
	for _, x := range v {
		if f := float64(x); math.IsInf(f, 0) || math.IsNaN(f) {
			_, err := json.Marshal(f)
			return err
		}
	}
	return nil
}

// appendFloat is encoding/json's floatEncoder for a finite f: ES6
// number-to-string, i.e. 'f' unless the exponent is below -6 or at least 21
// (compared at the value's own width), with "e-09" cleaned up to "e-9".
func appendFloat(b []byte, f float64, bits int) []byte {
	format, abs := byte('f'), math.Abs(f)
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
