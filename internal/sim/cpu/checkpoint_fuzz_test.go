package cpu

import (
	"reflect"
	"testing"

	"gem5art/internal/sim/mem"
)

// FuzzCheckpoint decodes arbitrary bytes as an archived checkpoint, as
// hack-back does with a fetched one: ParseCheckpoint, then LoadSnapshot
// of its memory image into a fresh store. Neither may panic, and a
// checkpoint ParseCheckpoint accepts must survive Serialize and parse
// unchanged. The committed seeds under testdata/fuzz/FuzzCheckpoint are
// the corruption cases of TestParseCheckpointRejectsCorruption, the
// valid checkpoint they cut, and that checkpoint with memory page
// counts whose byte size overflows.
func FuzzCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		_ = mem.NewBackingStore().LoadSnapshot(ck.Mem)
		again, err := ParseCheckpoint(ck.Serialize())
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !reflect.DeepEqual(again, ck) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", again, ck)
		}
	})
}
