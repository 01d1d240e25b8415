package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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
		return appendElems(dst, v, appendInt[int16]), nil
	case []int32:
		return appendElems(dst, v, appendInt[int32]), nil
	case []int64:
		return appendElems(dst, v, appendInt[int64]), nil
	case []uint32:
		return appendElems(dst, v, appendInt[uint32]), nil
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

func appendInt[T int16 | int32 | int64 | uint32](b []byte, x T) []byte {
	return strconv.AppendInt(b, int64(x), 10)
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
