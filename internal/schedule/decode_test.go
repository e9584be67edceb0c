package schedule_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/testutil"
)

// listsAreReaders is the service-list check ValidateStructure made while the
// schedule stored the lists: every list names, in any order and once each,
// exactly the deliveries whose SourceResidency is its copy.
func listsAreReaders(w *testutil.WireFile) bool {
	if w == nil {
		return true
	}
	for j, c := range w.Residencies {
		named := make(map[int]bool)
		for _, di := range c.Services {
			if di < 0 || di >= len(w.Deliveries) || w.Deliveries[di].SourceResidency != j || named[di] {
				return false
			}
			named[di] = true
		}
		for di, d := range w.Deliveries {
			if d.SourceResidency == j && !named[di] {
				return false
			}
		}
	}
	return true
}

// FuzzFileScheduleDecode holds a file's decoder to its mirror: whatever
// decodes as a testutil.WireFile, the decoder accepts exactly when its
// service lists pass listsAreReaders, and what it accepts encodes as the
// mirror of the same file, its lists found again by scanning the deliveries.
// Nothing else decodes.
func FuzzFileScheduleDecode(f *testing.F) {
	for _, seed := range []string{
		`{"video":0,"deliveries":[{"video":0,"user":0,"start":0,"route":[0,1],"source_residency":-1},` +
			`{"video":0,"user":1,"start":5400,"route":[1,2],"source_residency":0},` +
			`{"video":0,"user":2,"start":10800,"route":[1,2],"source_residency":0}],` +
			`"residencies":[{"video":0,"loc":1,"src":0,"load":0,"last_service":10800,"fed_by":0,"services":[2,1]},` +
			`{"video":0,"loc":2,"src":1,"load":5400,"last_service":5400,"fed_by":1,"services":null},` +
			`{"video":0,"loc":2,"src":0,"load":0,"last_service":99,"fed_by":-1,"services":[]}]}`,
		`{"video":3,"deliveries":[{"source_residency":0},{"source_residency":0},{"source_residency":7}],"residencies":[{"services":[1,0,1]}]}`,
		`{"video":3,"deliveries":[{"source_residency":0},{"source_residency":1}],"residencies":[{"services":[1]},{"services":[0]}]}`,
		`{"video":3,"deliveries":[{"source_residency":0}],"residencies":[{"services":[-1]},{"services":[9223372036854775807]}]}`,
		`{"video":3,"deliveries":null,"residencies":[{"fed_by":-1,"services":null},{"services":[]}]}`,
		`{"video":3,"Residencies":[{"Services":[0]}],"Deliveries":[{"Source_Residency":0}]}`,
		`{"video":3,"residencies":[{"services":[0],"services":[]}],"deliveries":[{"source_residency":-1}]}`,
		`{"video":3,"residencies":{}}`,
		`{}`, `null`, `[]`, `5`, `{"video":"0"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var w *testutil.WireFile
		var fs *schedule.FileSchedule
		err := json.Unmarshal(b, &fs)
		if json.Unmarshal(b, &w) != nil {
			if err == nil {
				t.Fatalf("%q decodes, but not as a mirror", b)
			}
			return
		}
		if ok := listsAreReaders(w); (err == nil) != ok {
			t.Fatalf("%q: the decoder says %v; its service lists are the readers: %v", b, err, ok)
		}
		if err != nil {
			return
		}
		var mirror *testutil.WireFile
		if w != nil {
			mirror = testutil.WireFileOf(w.File())
		}
		got, err := json.Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mirror)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q decodes to a file that encodes as\n%s\nits mirror as\n%s", b, got, want)
		}
	})
}
