package schedule_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// serving returns a schedule whose file v delivers, in order, the requests
// of reqs that name v. Coverage reads nothing else of a record.
func serving(reqs workload.Set) *schedule.Schedule {
	s := schedule.New()
	for _, r := range reqs {
		fs := s.File(r.Video)
		if fs == nil {
			fs = &schedule.FileSchedule{Video: r.Video}
			s.Put(fs)
		}
		fs.Deliveries = append(fs.Deliveries, schedule.Delivery{User: r.User, Video: r.Video, Start: r.Start, SourceResidency: schedule.NoResidency})
	}
	return s
}

func req(u topology.UserID, v media.VideoID, t simtime.Time) workload.Request {
	return workload.Request{User: u, Video: v, Start: t}
}

// A refused coverage check names the same record whatever order the maps
// iterate in, and the extension names the record the full check does: the
// first delivery matching no request in video-ID then record order, or else
// the least request not served by (video, start, user).
func TestCoverageNamesOneRecord(t *testing.T) {
	for _, tc := range []struct {
		name      string
		delivered workload.Set // in record order per file
		requests  workload.Set
		want      string
	}{
		{
			name:      "strays in two files: the lower video's first",
			delivered: workload.Set{req(0, 4, 10), req(1, 4, 20), req(2, 4, 30), req(0, 2, 10), req(1, 2, 20), req(2, 2, 30)},
			requests:  workload.Set{req(0, 4, 10), req(0, 2, 10)},
			want:      "schedule: delivery for (1,2,00:00:20) matches no request",
		},
		{
			name:      "a request served twice: the second copy",
			delivered: workload.Set{req(3, 1, 50), req(2, 1, 40), req(3, 1, 50), req(0, 7, 5), req(0, 7, 5)},
			requests:  workload.Set{req(3, 1, 50), req(2, 1, 40), req(0, 7, 5)},
			want:      "schedule: delivery for (3,1,00:00:50) matches no request",
		},
		{
			name:      "unserved in several videos: the least by video, start, user",
			delivered: workload.Set{req(0, 5, 100)},
			requests: workload.Set{req(0, 5, 100), req(2, 6, 5), req(4, 3, 90), req(1, 3, 80),
				req(0, 3, 80), req(3, 9, 1)},
			want: "schedule: request (user 0, video 3, 00:01:20) not served",
		},
		{
			name:      "a stray outranks an unserved request in a lower video",
			delivered: workload.Set{req(1, 8, 70)},
			requests:  workload.Set{req(1, 0, 0)},
			want:      "schedule: delivery for (1,8,00:01:10) matches no request",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := serving(tc.delivered)
			for split := 0; split <= len(tc.requests); split++ {
				// prev serves the first split requests, added is the rest.
				prev, added := serving(tc.requests[:split]), tc.requests[split:]
				var cov schedule.Coverage
				for run := 0; run < 20; run++ {
					if err := next.Serves(tc.requests); fmt.Sprint(err) != tc.want {
						t.Fatalf("Serves = %v, want %s", err, tc.want)
					}
					if err := cov.Extends(prev, next, added); fmt.Sprint(err) != tc.want {
						t.Fatalf("Extends from the first %d = %v, want %s", split, err, tc.want)
					}
				}
			}
		})
	}
}

// FuzzCoverageExtension holds the extension to the full check on arbitrary
// decoded schedules: with served taken as prev's own deliveries, next extends
// prev by added exactly when next serves served + added. When every delivery
// names the video of the file holding it, as ValidateStructure demands, the
// two refusals are the same words. One Coverage is kept across inputs, as a
// service keeps its checker's.
func FuzzCoverageExtension(f *testing.F) {
	d := func(u, v, t int) string {
		return fmt.Sprintf(`{"user":%d,"video":%d,"start":%d,"route":[0,1],"source_residency":-1}`, u, v, t)
	}
	file := func(v int, ds ...string) string {
		return fmt.Sprintf(`"%d":{"video":%d,"deliveries":[%s],"residencies":[]}`, v, v, strings.Join(ds, ","))
	}
	sched := func(files ...string) string { return `{"files":{` + strings.Join(files, ",") + `}}` }
	prev := sched(file(0, d(0, 0, 0), d(1, 0, 10), d(2, 0, 20)), file(3, d(1, 3, 5)))
	for _, seed := range [][3]string{
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 10), d(2, 0, 20), d(0, 0, 30)), file(3, d(1, 3, 5))), `[{"User":0,"Video":0,"Start":30}]`},
		{prev, sched(file(0, d(0, 0, 0), d(2, 0, 20), d(1, 0, 10)), file(3, d(1, 3, 5))), `[]`},
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 11), d(2, 0, 20)), file(3, d(1, 3, 5))), `null`},
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 10)), file(3, d(1, 3, 5), d(2, 3, 8))), `[{"User":2,"Video":3,"Start":8}]`},
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 10), d(2, 0, 20))), `[]`},
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 10), d(2, 0, 20)), file(3, d(1, 3, 5)), file(4, d(1, 4, 5))), `[{"User":1,"Video":4,"Start":5}]`},
		{prev, sched(file(0, d(0, 0, 0), d(1, 0, 10), d(2, 0, 20), d(1, 3, 5))), `[]`},
		{`{"files":{}}`, sched(file(1, d(0, 1, 1))), `[{"User":0,"Video":1,"Start":1}]`},
		{`{"files":{"2":null}}`, `{"files":{"2":null}}`, `[]`},
		{`null`, `{}`, `[{"User":0,"Video":0,"Start":0}]`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), []byte(seed[2]))
	}
	var cov schedule.Coverage
	f.Fuzz(func(t *testing.T, prevBlob, nextBlob, addedBlob []byte) {
		var prev, next *schedule.Schedule
		var added workload.Set
		if json.Unmarshal(prevBlob, &prev) != nil || json.Unmarshal(nextBlob, &next) != nil ||
			json.Unmarshal(addedBlob, &added) != nil || next == nil {
			return
		}
		var served workload.Set
		aligned := true
		for _, s := range []*schedule.Schedule{prev, next} {
			if s == nil {
				continue
			}
			for vid, fs := range s.Files {
				if fs == nil {
					continue
				}
				for _, d := range fs.Deliveries {
					aligned = aligned && d.Video == vid
				}
			}
		}
		if prev != nil {
			for _, vid := range prev.VideoIDs() {
				if fs := prev.File(vid); fs != nil {
					for _, d := range fs.Deliveries {
						served = append(served, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
					}
				}
			}
		}
		full := next.Serves(append(served, added...))
		ext := cov.Extends(prev, next, added)
		if (full == nil) != (ext == nil) {
			t.Fatalf("the full check says %v, the extension %v", full, ext)
		}
		if aligned && fmt.Sprint(full) != fmt.Sprint(ext) {
			t.Fatalf("the full check says %v, the extension %v", full, ext)
		}
	})
}
