package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"github.com/vodsim/vsp/internal/media"
)

// AppendJSON appends json.Marshal(s) to dst, byte for byte, and returns the
// extended slice. A schedule is encoded at every snapshot and for every plan
// a shard or the gateway serves, at the size of the shard's history, so the
// caller chooses the buffer: one it keeps, or one sized from the last
// encoding. The struct tags are the format's definition and this its writer:
// fields in declaration order, file keys ordered as their decimal strings
// (video 10 before video 2), nil slices and maps as null, a nil file as null.
// A residency's "services", which the types do not store, are the deliveries
// drawing from it in ascending order, built in one buffer sized by the largest
// file; an empty list is null for a pre-placed copy.
func (s *Schedule) AppendJSON(dst []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"files":`...)
	if s.Files == nil {
		return append(dst, "null}"...)
	}
	n := 0
	for _, fs := range s.Files {
		if fs != nil {
			n = max(n, readersLen(fs))
		}
	}
	buf := make([]int, n)
	dst = append(dst, '{')
	for i, vid := range keyOrder(s.Files) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(strconv.AppendInt(append(dst, '"'), int64(vid), 10), `":`...)
		dst = s.Files[vid].appendJSON(dst, buf)
	}
	return append(dst, "}}"...)
}

// MarshalJSON is AppendJSON's encoding of one file, so that encoding/json
// writes a schedule as AppendJSON does.
func (fs FileSchedule) MarshalJSON() ([]byte, error) { return fs.appendJSON(nil, nil), nil }

// UnmarshalJSON decodes a file as AppendJSON writes it. A residency's
// service list is the encoding's claim about who reads the copy: it is
// refused unless it names, in any order and once each, exactly the deliveries
// drawing from the copy, and then dropped.
func (fs *FileSchedule) UnmarshalJSON(b []byte) error {
	var w struct {
		Video       media.VideoID `json:"video"`
		Deliveries  []Delivery    `json:"deliveries"`
		Residencies []struct {
			Residency
			Services []int `json:"services"`
		} `json:"residencies"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*fs = FileSchedule{Video: w.Video, Deliveries: w.Deliveries}
	if w.Residencies != nil {
		fs.Residencies = make([]Residency, len(w.Residencies))
	}
	at, idx := fs.readers(nil)
	for j, c := range w.Residencies {
		fs.Residencies[j] = c.Residency
		slices.Sort(c.Services)
		if readers := idx[at[j]:at[j+1]]; !slices.Equal(c.Services, readers) {
			return fmt.Errorf("schedule: video %d residency %d lists services %v, but deliveries %v draw from it", w.Video, j, c.Services, readers)
		}
	}
	return nil
}

// keyOrder returns the map's keys in the order encoding/json writes them: by
// their decimal strings.
func keyOrder(files map[media.VideoID]*FileSchedule) []media.VideoID {
	keys := make([]media.VideoID, 0, len(files))
	for vid := range files {
		keys = append(keys, vid)
	}
	slices.SortFunc(keys, func(a, b media.VideoID) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	return keys
}

func (fs *FileSchedule) appendJSON(dst []byte, buf []int) []byte {
	if fs == nil {
		return append(dst, "null"...)
	}
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(fs.Video), 10)
	dst = appendList(append(dst, `,"deliveries":`...), fs.Deliveries, (*Delivery).appendJSON)
	at, idx := fs.readers(buf)
	j := 0
	return append(appendList(append(dst, `,"residencies":`...), fs.Residencies, func(c *Residency, dst []byte) []byte {
		j++
		return c.appendJSON(dst, idx[at[j-1]:at[j]])
	}), '}')
}

func (d *Delivery) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(d.Video), 10)
	dst = strconv.AppendInt(append(dst, `,"user":`...), int64(d.User), 10)
	dst = strconv.AppendInt(append(dst, `,"start":`...), int64(d.Start), 10)
	dst = appendList(append(dst, `,"route":`...), d.Route, appendInt)
	dst = strconv.AppendInt(append(dst, `,"source_residency":`...), int64(d.SourceResidency), 10)
	return append(dst, '}')
}

func (c *Residency) appendJSON(dst []byte, services []int) []byte {
	if len(services) == 0 && c.FedBy == PrePlacedFeed {
		services = nil
	}
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(c.Video), 10)
	dst = strconv.AppendInt(append(dst, `,"loc":`...), int64(c.Loc), 10)
	dst = strconv.AppendInt(append(dst, `,"src":`...), int64(c.Src), 10)
	dst = strconv.AppendInt(append(dst, `,"load":`...), int64(c.Load), 10)
	dst = strconv.AppendInt(append(dst, `,"last_service":`...), int64(c.LastService), 10)
	dst = strconv.AppendInt(append(dst, `,"fed_by":`...), int64(c.FedBy), 10)
	dst = appendList(append(dst, `,"services":`...), services, appendInt)
	return append(dst, '}')
}

func appendInt[T ~int](x *T, dst []byte) []byte { return strconv.AppendInt(dst, int64(*x), 10) }

// appendList appends a slice as encoding/json writes one — null when nil, []
// when empty — each element by enc. Before each element it makes room for a
// record, doubling dst's capacity when it has to reallocate, as bytes.Buffer
// does: append alone grows a large slice by a quarter at a time, so an
// encoding that starts in an empty or outgrown buffer would be reallocated
// and copied a dozen times on its way to the size of a long history.
func appendList[T any](dst []byte, xs []T, enc func(*T, []byte) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if cap(dst)-len(dst) < recordBytes {
			dst = slices.Grow(dst, len(dst)+recordBytes)
		}
		dst = enc(&xs[i], dst)
	}
	return append(dst, ']')
}

// recordBytes is room for one delivery or residency record as encoded; a
// longer one still fits, by append's own growth.
const recordBytes = 256
