package schedule

import (
	"bytes"
	"slices"
	"strconv"

	"github.com/vodsim/vsp/internal/media"
)

// AppendJSON appends json.Marshal(s) to dst, byte for byte, and returns the
// extended slice. A schedule is encoded at every snapshot and for every plan
// a shard or the gateway serves, at the size of the shard's history, so the
// caller chooses the buffer: one it keeps, or one sized from the last
// encoding. encoding/json stays the decoder, so the struct tags remain the
// format's definition and this its writer: fields in declaration order, file
// keys ordered as their decimal strings (video 10 before video 2), nil slices
// and maps as null, a nil file as null.
func (s *Schedule) AppendJSON(dst []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"files":`...)
	if s.Files == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '{')
	for i, vid := range keyOrder(s.Files) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(strconv.AppendInt(append(dst, '"'), int64(vid), 10), `":`...)
		dst = s.Files[vid].appendJSON(dst)
	}
	return append(dst, "}}"...)
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

func (fs *FileSchedule) appendJSON(dst []byte) []byte {
	if fs == nil {
		return append(dst, "null"...)
	}
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(fs.Video), 10)
	dst = appendList(append(dst, `,"deliveries":`...), fs.Deliveries, (*Delivery).appendJSON)
	dst = appendList(append(dst, `,"residencies":`...), fs.Residencies, (*Residency).appendJSON)
	return append(dst, '}')
}

func (d *Delivery) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(d.Video), 10)
	dst = strconv.AppendInt(append(dst, `,"user":`...), int64(d.User), 10)
	dst = strconv.AppendInt(append(dst, `,"start":`...), int64(d.Start), 10)
	dst = appendList(append(dst, `,"route":`...), d.Route, appendInt)
	dst = strconv.AppendInt(append(dst, `,"source_residency":`...), int64(d.SourceResidency), 10)
	return append(dst, '}')
}

func (c *Residency) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"video":`...), int64(c.Video), 10)
	dst = strconv.AppendInt(append(dst, `,"loc":`...), int64(c.Loc), 10)
	dst = strconv.AppendInt(append(dst, `,"src":`...), int64(c.Src), 10)
	dst = strconv.AppendInt(append(dst, `,"load":`...), int64(c.Load), 10)
	dst = strconv.AppendInt(append(dst, `,"last_service":`...), int64(c.LastService), 10)
	dst = strconv.AppendInt(append(dst, `,"fed_by":`...), int64(c.FedBy), 10)
	dst = appendList(append(dst, `,"services":`...), c.Services, appendInt)
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
