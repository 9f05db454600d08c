package graph

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzGraphJSON checks that arbitrary byte input never panics the decoder,
// and that anything it accepts survives a re-encode/decode round trip.
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"edges":[]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]]}`))
	f.Add([]byte(`{"tasks":[],"edges":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"tasks":[{"weight":-5}],"edges":[[0,0]]}`))
	f.Add([]byte(`{"tasks":[{"weight":1}],"edges":[[0,9]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected: fine
		}
		// Accepted graphs must be valid DAGs with positive weights…
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		// …and round-trip losslessly.
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var h Graph
		if err := json.Unmarshal(out, &h); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g.N(), g.M(), h.N(), h.M())
		}
	})
}

// FuzzGraphCanonical extends the IO round-trip corpus to the canonical
// encoding: any graph the JSON decoder accepts must produce a canonical
// byte string that is (a) stable across a JSON round trip, (b) independent
// of task names, and (c) paired with a matching fingerprint. DOT rendering
// must never panic on the same inputs.
func FuzzGraphCanonical(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"edges":[]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]]}`))
	f.Add([]byte(`{"tasks":[{"weight":1},{"weight":2},{"weight":3}],"edges":[[0,2],[1,2]]}`))
	f.Add([]byte(`{"tasks":[],"edges":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		canon := g.CanonicalBytes()
		fp := g.Fingerprint()

		// (a) stable across an encode/decode round trip.
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var h Graph
		if err := json.Unmarshal(out, &h); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if string(h.CanonicalBytes()) != string(canon) {
			t.Fatal("canonical bytes changed across a JSON round trip")
		}

		// (b) independent of names: renaming every task must not move the
		// fingerprint (weights and structure are untouched).
		r := New()
		for i := 0; i < g.N(); i++ {
			r.AddTask(fmt.Sprintf("renamed-%d", i), g.Weight(i))
		}
		for _, e := range g.Edges() {
			r.MustAddEdge(e[0], e[1])
		}
		if r.Fingerprint() != fp {
			t.Fatal("renaming tasks changed the fingerprint")
		}

		// (c) DOT rendering is total on valid graphs.
		if dot := g.ToDOT("fuzz"); len(dot) == 0 {
			t.Fatal("empty DOT output")
		}
	})
}

// FuzzDecomposeSP checks the SP recognizer never panics, agrees with the
// prefix-scan oracle on the verdict and the expression, and never
// mis-recognizes: when it claims an expression, re-materializing must
// reproduce the input edge set exactly.
func FuzzDecomposeSP(f *testing.F) {
	f.Add(uint8(3), uint16(0b101))
	f.Add(uint8(5), uint16(0b11011))
	f.Add(uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, n uint8, edgeBits uint16) {
		size := int(n%6) + 1
		g := New()
		for i := 0; i < size; i++ {
			g.AddTask("", 1+float64(i))
		}
		// Decode edgeBits into forward edges (i, j), i < j.
		bit := 0
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if edgeBits&(1<<bit) != 0 {
					g.MustAddEdge(i, j)
				}
				bit++
				if bit >= 16 {
					break
				}
			}
		}
		expr, ok := DecomposeSP(g)
		if want, wok := decomposeSPPrefixScan(g); ok != wok || !reflect.DeepEqual(expr, want) {
			t.Fatalf("DecomposeSP = %v (%v), prefix scan = %v (%v)", expr, ok, want, wok)
		}
		if !ok {
			return
		}
		if expr.Size() != g.N() {
			t.Fatalf("expression covers %d of %d tasks", expr.Size(), g.N())
		}
		re, err := MaterializeSP(expr, g.Weights())
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		if re.M() != g.M() {
			t.Fatalf("edge count changed: %d vs %d", re.M(), g.M())
		}
		for _, e := range g.Edges() {
			if !re.HasEdge(e[0], e[1]) {
				t.Fatalf("edge %v lost", e)
			}
		}
	})
}
