package service

import (
	"encoding/json"
	"reflect"
	"testing"

	gts "repro"
)

// fillDistinct sets every settable field reachable from v to a value no
// other field gets (n counts them), so two fields swapped, dropped or
// re-tagged change the marshalled bytes — and so does a field added later,
// which the walk reaches without being told about it.
func fillDistinct(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillDistinct(v.Index(0), n)
		fillDistinct(v.Index(1), n)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillDistinct(v.Elem(), n)
	case reflect.Interface:
		if !v.IsNil() { // Result.Output: fill the struct the test pointed it at
			fillDistinct(v.Elem(), n)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		*n++
		v.SetString("s" + string(rune('a'+*n%26)))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// resultStructs returns one empty instance of every public result struct the
// service serves, by algorithm name.
func resultStructs() map[string]any {
	return map[string]any{
		"bfs":          &gts.BFSResult{},
		"pagerank":     &gts.PageRankResult{},
		"sssp":         &gts.SSSPResult{},
		"cc":           &gts.CCResult{},
		"bc":           &gts.BCResult{},
		"rwr":          &gts.RWRResult{},
		"degree":       &gts.DegreeResult{},
		"kcore":        &gts.KCoreResult{},
		"radius":       &gts.RadiusResult{},
		"neighborhood": &gts.NeighborhoodResult{},
		"crossedges":   &gts.CrossEdgesResult{},
	}
}

// TestServedBytesGolden pins the JSON a client receives: the run metrics on
// their own, and one service.Result per public result struct. The literals
// were taken before gts.Metrics moved to internal/core (PR 17) and must not
// change when a type moves, is aliased or gains an embedding; a deliberate
// response change edits the literal in the same commit.
func TestServedBytesGolden(t *testing.T) {
	outputs := resultStructs()
	got := map[string]string{}
	marshal := func(name string, v any) {
		n := 0
		fillDistinct(reflect.ValueOf(v).Elem(), &n)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = string(b)
	}
	marshal("metrics", &gts.Metrics{})
	for name, out := range outputs {
		marshal("result/"+name, &Result{Output: out})
	}
	for name, want := range servedBytesGolden {
		if got[name] != want {
			t.Errorf("%s: served bytes changed\n got %s\nwant %s", name, got[name], want)
		}
	}
	if len(got) != len(servedBytesGolden) {
		t.Errorf("marshalled %d documents, golden has %d", len(got), len(servedBytesGolden))
	}
}
