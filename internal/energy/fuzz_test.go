package energy

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse, the decoder of model files
// on disk. Nothing may panic, and an accepted model must survive
// json.Marshal and Parse unchanged, with the same Salt, so a model that
// is written back out keys the same cached runs. The committed seeds
// under testdata/fuzz/FuzzParse are TestParseErrors's cases,
// TestLoadRoundTrip's file, and dynamic_empty: an empty dynamic_pj,
// which json.Marshal omits, once came back nil where Parse had kept an
// empty map.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal of an accepted model: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the model:\n got %+v\nwant %+v", again, m)
		}
		if again.Salt() != m.Salt() {
			t.Fatalf("round trip changed the salt: %s, want %s", again.Salt(), m.Salt())
		}
	})
}
