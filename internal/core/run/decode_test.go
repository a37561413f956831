package run

import (
	"encoding/json"
	"reflect"
	"testing"

	"gem5art/internal/database"
)

// FuzzResultsFromDoc is differential: any JSON object, read as the
// document a cache tier holds, must decode through resultsFromDoc
// exactly as json.Unmarshal of its JSON into Results does — both fail,
// or both give equal Results. The seeds are in testdata/fuzz.
func FuzzResultsFromDoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d database.Doc
		if err := json.Unmarshal(raw, &d); err != nil {
			return
		}
		got, gotErr := resultsFromDoc(d)
		want, wantErr := viaJSON(t, d)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: resultsFromDoc error %v, json error %v", raw, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nresultsFromDoc %+v\njson           %+v", raw, got, want)
		}
	})
}

// viaJSON is the reference decode: the document's JSON unmarshalled
// into Results.
func viaJSON(t *testing.T, d database.Doc) (*Results, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("a JSON-decoded document does not encode: %v", err)
	}
	var res Results
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// TestResultsDocRoundTrip: every field of Results survives resultsDoc
// and resultsFromDoc, so a field added to Results without a decoder
// case fails here.
func TestResultsDocRoundTrip(t *testing.T) {
	want := &Results{
		Outcome: "success", SimSeconds: 0.0123, Insts: 1<<53 + 2,
		Stats:   map[string]float64{"boot_insts": 5.7e6, "energy.total_joules": 0.25},
		Console: "Linux version 5.4.49\n", ConfigINI: "[system]\n",
		StatsHash: "a1", ConsoleHash: "b2", ConfigHash: "c3", ResumedFrom: "d4",
		FromCache: true, BootClass: "e5", SharedBoot: true,
	}
	v := reflect.ValueOf(want).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("set Results.%s in this test", v.Type().Field(i).Name)
		}
	}
	got, err := resultsFromDoc(resultsDoc(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
}
