package diskimage

import (
	"reflect"
	"testing"

	"gem5art/internal/workloads"
)

// FuzzParse feeds Parse arbitrary bytes, seeded with a built image and
// the damaged copies TestParseRejectsCorruption rejects. Parse must not
// panic, and an image it accepts must survive Serialize and Parse
// unchanged.
func FuzzParse(f *testing.F) {
	img, err := Build(Template{Name: "x", OS: workloads.Ubuntu1804,
		Steps: []Provisioner{{Type: "file", Dest: "/etc/motd", Content: []byte("hi")}}})
	if err != nil {
		f.Fatal(err)
	}
	data := img.Serialize()
	f.Add(data)
	for _, bad := range corruptions(data) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Parse(data)
		if err != nil {
			return
		}
		again, err := Parse(img.Serialize())
		if err != nil {
			t.Fatalf("reparse of an accepted image: %v", err)
		}
		if !reflect.DeepEqual(again, img) {
			t.Fatalf("round trip changed the image:\n got %+v\nwant %+v", again, img)
		}
	})
}
