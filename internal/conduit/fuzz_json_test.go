package conduit

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzJSONRoundTrip feeds arbitrary bytes through the JSON boundary (the
// gateway's wire format) and cross-checks it against the binary codec.
// UnmarshalJSON must never panic; anything it accepts must survive
// JSON → tree → JSON → tree as a fixpoint AND agree with the binary codec
// (tree → EncodeBinaryStable → DecodeBinary → same tree).
//
// The fixpoint is asserted one canonicalization late: the first parse is
// allowed to normalize (JSON "2.0" becomes int 2, so n1's JSON need not
// equal the input), but after one round through MarshalJSON the
// representation must be stable.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"a":1,"b":2.5,"c":"s"}`))
	f.Add([]byte(`{"job":{"ranks":[1,2,3],"name":"openfoam"},"t":12.75}`))
	f.Add([]byte(`{"neg":-9007199254740993,"big":1e308,"tiny":5e-324}`))
	f.Add([]byte(`{"2.0 becomes int":2.0,"stays float":2.5}`))
	f.Add([]byte(`{"v":-0.0}`))
	f.Add([]byte(`{"v":-0}`))
	// Hostile: deep nesting, duplicate keys, invalid UTF-8, truncation.
	f.Add([]byte(strings.Repeat(`{"d":`, 40) + "1" + strings.Repeat("}", 40)))
	f.Add([]byte(`{"k":1,"k":2,"k":"three"}`))
	f.Add([]byte("{\"\xff\xfe\":1}"))
	f.Add([]byte(`{"a":[1,2`))
	f.Add([]byte(`{"a":[1,"mixed"]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		n1 := NewNode()
		if err := n1.UnmarshalJSON(data); err != nil {
			return // rejection is fine; panics are not
		}
		j1, err := n1.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted input failed to marshal: %v\ninput: %q", err, data)
		}
		n2 := NewNode()
		if err := n2.UnmarshalJSON(j1); err != nil {
			t.Fatalf("own MarshalJSON output rejected: %v\njson: %s", err, j1)
		}
		j2, err := n2.MarshalJSON()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("JSON not a fixpoint after one canonicalization:\n first: %s\nsecond: %s", j1, j2)
		}
		// Binary agreement: the tree the JSON boundary built must survive
		// the binary codec unchanged — the two wire formats describe the
		// same data model.
		enc := n2.EncodeBinaryStable()
		n3, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("JSON-built tree rejected by binary codec: %v\njson: %s", err, j1)
		}
		if !n2.Equal(n3) {
			t.Fatalf("binary round-trip changed the tree\njson: %s", j1)
		}
		j3, err := n3.MarshalJSON()
		if err != nil {
			t.Fatalf("binary round-tripped tree failed to marshal: %v", err)
		}
		if !bytes.Equal(j2, j3) {
			t.Fatalf("codecs disagree:\n  json: %s\nbinary: %s", j2, j3)
		}
	})
}

// TestJSONHostileInputs pins the behavior (accept-and-normalize or reject,
// but never panic) for the classic hostile inputs one by one, so a change
// in any verdict is visible in review rather than buried in a corpus.
func TestJSONHostileInputs(t *testing.T) {
	cases := []struct {
		name   string
		input  string
		accept bool
	}{
		{"empty object", `{}`, true},
		{"deep nesting 100", strings.Repeat(`{"d":`, 100) + "1" + strings.Repeat("}", 100), true},
		{"huge positive exponent", `{"v":1e308}`, true},
		{"overflow to infinity", `{"v":1e309}`, false},
		{"integer beyond int64", `{"v":92233720368547758089}`, true}, // falls back to float64
		{"negative zero", `{"v":-0.0}`, true},
		{"negative zero in an array", `{"v":[-0.0,1]}`, true},
		{"duplicate keys", `{"k":1,"k":2}`, true}, // last one wins, like encoding/json
		{"invalid utf8 in key", "{\"\xff\":1}", true},
		{"invalid utf8 in value", "{\"k\":\"\xc3\x28\"}", true},
		{"truncated object", `{"a":1`, false},
		{"truncated array", `{"a":[1,2`, false},
		{"trailing garbage", `{"a":1}}}`, false},
		{"trailing second document", `{"a":1} {"b":2}`, false},
		{"mixed-type array", `{"a":[1,"two"]}`, false},
		{"nested non-numeric array", `{"a":[[1],[2]]}`, false},
		// Leaf roots are legitimate: a Node can itself be a scalar/array
		// leaf, so the JSON boundary admits the same shapes the tree can hold.
		{"bare scalar", `42`, true},
		{"bare null", `null`, true},
		{"bare array", `[1,2]`, true},
		{"leading whitespace", "  \t\n{\"a\":1}", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode()
			err := n.UnmarshalJSON([]byte(tc.input))
			if tc.accept && err != nil {
				t.Fatalf("want accept, got error: %v", err)
			}
			if !tc.accept && err == nil {
				out, _ := n.MarshalJSON()
				t.Fatalf("want reject, got tree: %s", out)
			}
			if err != nil {
				return
			}
			// Whatever was accepted must round-trip through both codecs.
			j1, err := n.MarshalJSON()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back := NewNode()
			if err := back.UnmarshalJSON(j1); err != nil {
				t.Fatalf("re-unmarshal: %v", err)
			}
			// JSON→tree→JSON→tree is stable: "-0.0" must not decay to int 0.
			if j2, _ := back.MarshalJSON(); !bytes.Equal(j1, j2) || !n.Equal(back) {
				t.Fatalf("not a fixpoint after one canonicalisation: %s then %s", j1, j2)
			}
			dec, err := DecodeBinary(back.EncodeBinaryStable())
			if err != nil {
				t.Fatalf("binary codec: %v", err)
			}
			if !back.Equal(dec) {
				t.Fatalf("binary round-trip changed tree for %s", j1)
			}
		})
	}
}
