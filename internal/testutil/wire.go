package testutil

import (
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
)

// WireSchedule is a schedule as its encoding spells it: every residency
// carries its service list, the indices of the deliveries that read the copy.
// The schedule types keep no such list — the encoder derives it and the
// decoder checks it — so this mirror, encoded and decoded by encoding/json
// alone, is the oracle the two are tested against.
type WireSchedule struct {
	Files map[media.VideoID]*WireFile `json:"files"`
}

// WireFile is one file of a WireSchedule.
type WireFile struct {
	Video       media.VideoID       `json:"video"`
	Deliveries  []schedule.Delivery `json:"deliveries"`
	Residencies []WireResidency     `json:"residencies"`
}

// WireResidency is a residency record with its service list, the last field.
type WireResidency struct {
	schedule.Residency
	Services []int `json:"services"`
}

// Wire mirrors s, finding each service list by scanning every delivery: the
// readers in ascending order, and an empty list nil for a pre-placed copy and
// empty for any other. A nil schedule, file map or record list stays nil.
func Wire(s *schedule.Schedule) *WireSchedule {
	if s == nil {
		return nil
	}
	w := &WireSchedule{}
	if s.Files != nil {
		w.Files = make(map[media.VideoID]*WireFile, len(s.Files))
	}
	for vid, fs := range s.Files {
		w.Files[vid] = WireFileOf(fs)
	}
	return w
}

// WireFileOf mirrors one file as Wire does.
func WireFileOf(fs *schedule.FileSchedule) *WireFile {
	if fs == nil {
		return nil
	}
	w := &WireFile{Video: fs.Video, Deliveries: fs.Deliveries}
	if fs.Residencies != nil {
		w.Residencies = make([]WireResidency, len(fs.Residencies))
	}
	for j, c := range fs.Residencies {
		w.Residencies[j].Residency = c
		if c.FedBy != schedule.PrePlacedFeed {
			w.Residencies[j].Services = []int{}
		}
		for di, d := range fs.Deliveries {
			if d.SourceResidency == j {
				w.Residencies[j].Services = append(w.Residencies[j].Services, di)
			}
		}
	}
	return w
}

// File returns the file the mirror spells, its service lists dropped.
func (w *WireFile) File() *schedule.FileSchedule {
	fs := &schedule.FileSchedule{Video: w.Video, Deliveries: w.Deliveries}
	if w.Residencies != nil {
		fs.Residencies = make([]schedule.Residency, len(w.Residencies))
	}
	for j, c := range w.Residencies {
		fs.Residencies[j] = c.Residency
	}
	return fs
}
