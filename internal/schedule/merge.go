package schedule

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Encoding is a schedule's canonical encoding — exactly the bytes AppendJSON
// writes for a schedule whose files are non-nil and keyed by their own video —
// with its files indexed, so AppendMerged can copy them record by record
// without decoding them. It aliases the bytes it was made from, which must
// not be written again; an Encoding itself is immutable and safe for
// concurrent use.
type Encoding struct {
	raw   []byte
	files []encodedFile // in key order
}

// encodedFile is one file of an Encoding: its key's digits, which are also
// its video's, and the contents of its two record lists.
type encodedFile struct {
	key                     []byte
	deliveries, residencies encodedList
}

// encodedList is a record list's contents between its brackets (nil for
// null), how many records it holds, and whether an empty list — a route or a
// service list — appears among them.
type encodedList struct {
	body     []byte
	n        int
	hasEmpty bool
}

// NewEncoding indexes raw, which it keeps: the caller must not write it
// again. Anything but a canonical encoding is refused — whitespace, a field
// out of order or missing, a number json.Marshal would not write or an int
// cannot hold, file keys out of order, a null file, a file keyed under
// another video, trailing bytes — so every Encoding decodes, and its bytes
// are what AppendJSON writes for what they decode to.
func NewEncoding(raw []byte) (*Encoding, error) {
	e := &Encoding{raw: raw}
	p := parser{b: raw}
	if p.next("null") {
		return e, p.end()
	}
	p.want(`{"files":`)
	if !p.next("null") {
		p.want("{")
		for more := !p.next("}"); more && p.err == nil; more = p.next(",") || !p.want("}") {
			f := p.file()
			if n := len(e.files); p.err == nil && n > 0 && bytes.Compare(e.files[n-1].key, f.key) >= 0 {
				p.fail(fmt.Sprintf("file key %s after %s, out of order", f.key, e.files[n-1].key))
			}
			e.files = append(e.files, f)
		}
	}
	p.want("}")
	if err := p.end(); err != nil {
		return nil, err
	}
	return e, nil
}

// Bytes returns the encoding NewEncoding was given.
func (e *Encoding) Bytes() []byte { return e.raw }

// parser reads a canonical encoding front to back. Its first failure sticks:
// every later call is a no-op and end reports it.
type parser struct {
	b   []byte
	i   int
	err error
}

func (p *parser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("schedule: not a canonical encoding at byte %d: %s", p.i, what)
	}
}

// next consumes lit if the input continues with it.
func (p *parser) next(lit string) bool {
	if p.err != nil || len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	return true
}

// want consumes lit or fails.
func (p *parser) want(lit string) bool {
	if !p.next(lit) {
		p.fail("want " + lit)
		return false
	}
	return true
}

func (p *parser) end() error {
	if p.err == nil && p.i != len(p.b) {
		p.fail("trailing bytes")
	}
	return p.err
}

// int consumes an integer as strconv.AppendInt writes one, within int's range.
func (p *parser) int() int {
	if p.err != nil {
		return 0
	}
	v, n := leadingInt(p.b[p.i:])
	if n == 0 {
		p.fail("want an integer")
	}
	p.i += n
	return v
}

// leadingInt returns the integer b starts with and its length, 0 when b does
// not start with one written as strconv.AppendInt writes it (no plus sign, no
// leading zero, no "-0") that fits an int.
func leadingInt(b []byte) (int, int) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, 0 // 20 digits overflow an int64
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start, b[start] == '0' && (i-start > 1 || neg):
		return 0, 0
	case neg && u <= uint64(math.MaxInt)+1:
		return int(-u), i
	case !neg && u <= uint64(math.MaxInt):
		return int(u), i
	}
	return 0, 0
}

func (p *parser) file() encodedFile {
	var f encodedFile
	p.want(`"`)
	at := p.i
	key := p.int()
	f.key = p.b[at:p.i]
	p.want(`":`)
	if p.next("null") {
		p.fail(fmt.Sprintf("file key %d holds no schedule", key))
	}
	p.want(`{"video":`)
	if v := p.int(); p.err == nil && v != key {
		p.fail(fmt.Sprintf("file key %d holds schedule for %d", key, v))
	}
	p.want(`,"deliveries":`)
	f.deliveries = p.list(p.delivery)
	p.want(`,"residencies":`)
	f.residencies = p.list(p.residency)
	p.want("}")
	return f
}

// list consumes null or a bracketed list of what elem consumes.
func (p *parser) list(elem func()) encodedList {
	var l encodedList
	if p.next("null") || !p.want("[") {
		return l
	}
	at := p.i
	for more := !p.next("]"); more && p.err == nil; more = p.next(",") || !p.want("]") {
		elem()
		l.n++
	}
	if p.err == nil {
		l.body = p.b[at : p.i-1]
		l.hasEmpty = bytes.Contains(l.body, []byte("[]"))
	}
	return l
}

func (p *parser) intElem() { p.int() }

func (p *parser) delivery() {
	p.want(`{"video":`)
	p.int()
	p.want(`,"user":`)
	p.int()
	p.want(`,"start":`)
	p.int()
	p.want(routeKey)
	p.list(p.intElem)
	p.want(sourceKey)
	p.int()
	p.want("}")
}

func (p *parser) residency() {
	p.want(`{"video":`)
	p.int()
	for _, k := range []string{`,"loc":`, `,"src":`, `,"load":`, `,"last_service":`, fedByKey} {
		p.want(k)
		p.int()
	}
	p.want(servicesKey)
	p.list(p.intElem)
	p.want("}")
}

// The fields AppendMerged rewrites, as they appear in a record.
const (
	routeKey    = `,"route":`
	sourceKey   = `,"source_residency":`
	fedByKey    = `,"fed_by":`
	servicesKey = `,"services":`
)

// AppendMerged appends to dst the canonical encoding of the union of parts
// and returns the extended slice. Parts are shards of one reservation stream,
// so two may both hold a file for a video: its records are concatenated in
// part order, and each part's index-valued references are rebased by the
// records the parts before it contributed — source_residency by their
// residencies unless it is NoResidency, fed_by by their deliveries unless it
// is PrePlacedFeed, and every service by their deliveries. Each record is
// otherwise copied as it stands, and the empty lists come out as a decode,
// a clone of the first part's file and an append of the later parts' records
// would leave them: a file's delivery and residency lists are always arrays,
// an empty route is null, and an empty service list is null in the first part
// that holds the file and [] in the later ones.
func AppendMerged(dst []byte, parts ...*Encoding) []byte {
	next := make([]int, len(parts)) // each part's first file not yet merged
	var files []*encodedFile        // the parts' files for one video, in part order
	dst = append(dst, `{"files":{`...)
	for n := 0; ; n++ {
		var key []byte
		for i, e := range parts {
			if next[i] < len(e.files) && (key == nil || bytes.Compare(e.files[next[i]].key, key) < 0) {
				key = e.files[next[i]].key
			}
		}
		if key == nil {
			return append(dst, "}}"...)
		}
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), key...), `":{"video":`...)
		dst = append(append(dst, key...), `,"deliveries":[`...)
		files = files[:0]
		for i, e := range parts {
			if next[i] < len(e.files) && bytes.Equal(e.files[next[i]].key, key) {
				files = append(files, &e.files[next[i]])
				next[i]++
			}
		}
		var dOff, rOff int
		for _, f := range files {
			dst = appendDeliveries(dst, f.deliveries, rOff, dOff > 0)
			dOff, rOff = dOff+f.deliveries.n, rOff+f.residencies.n
		}
		dst = append(dst, `],"residencies":[`...)
		dOff, rOff = 0, 0
		for k, f := range files {
			dst = appendResidencies(dst, f.residencies, dOff, k > 0, rOff > 0)
			dOff, rOff = dOff+f.deliveries.n, rOff+f.residencies.n
		}
		dst = append(dst, "]}"...)
	}
}

// appendDeliveries appends a delivery list's records, after a comma when
// records precede them, with source_residency rebased by rOff and an empty
// route written as null.
func appendDeliveries(dst []byte, l encodedList, rOff int, after bool) []byte {
	if l.n == 0 {
		return dst
	}
	if after {
		dst = append(dst, ',')
	}
	if rOff == 0 && !l.hasEmpty {
		return append(dst, l.body...)
	}
	for b := l.body; len(b) > 0; {
		k := bytes.Index(b, []byte(routeKey)) + len(routeKey)
		dst, b = append(dst, b[:k]...), b[k:]
		switch {
		case b[0] == 'n':
			dst, b = append(dst, "null"...), b[len("null"):]
		case b[1] == ']':
			dst, b = append(dst, "null"...), b[len("[]"):]
		default:
			k = bytes.IndexByte(b, ']') + 1
			dst, b = append(dst, b[:k]...), b[k:]
		}
		dst, b = append(dst, sourceKey...), b[len(sourceKey):]
		v, k := leadingInt(b)
		if v != NoResidency {
			v += rOff
		}
		dst, b = strconv.AppendInt(dst, int64(v), 10), b[k:]
		dst, b = appendRecordEnd(dst, b)
	}
	return dst
}

// appendResidencies appends a residency list's records, after a comma when
// records precede them, with fed_by and every service rebased by dOff. An
// empty service list is null in the first part that holds the file (later
// false) and [] in a later one.
func appendResidencies(dst []byte, l encodedList, dOff int, later, after bool) []byte {
	if l.n == 0 {
		return dst
	}
	if after {
		dst = append(dst, ',')
	}
	if !later && !l.hasEmpty {
		return append(dst, l.body...)
	}
	empty := "null"
	if later {
		empty = "[]"
	}
	for b := l.body; len(b) > 0; {
		k := bytes.Index(b, []byte(fedByKey)) + len(fedByKey)
		dst, b = append(dst, b[:k]...), b[k:]
		v, k := leadingInt(b)
		if v != PrePlacedFeed {
			v += dOff
		}
		dst, b = strconv.AppendInt(dst, int64(v), 10), b[k:]
		dst, b = append(dst, servicesKey...), b[len(servicesKey):]
		switch {
		case b[0] == 'n':
			dst, b = append(dst, empty...), b[len("null"):]
		case b[1] == ']':
			dst, b = append(dst, empty...), b[len("[]"):]
		default:
			dst, b = append(dst, '['), b[1:]
			for sep := byte(','); sep == ','; {
				v, k = leadingInt(b)
				sep = b[k]
				dst, b = append(strconv.AppendInt(dst, int64(v+dOff), 10), sep), b[k+1:]
			}
		}
		dst, b = appendRecordEnd(dst, b)
	}
	return dst
}

// appendRecordEnd copies the brace that closes a record and the comma that
// separates it from the next, if there is one.
func appendRecordEnd(dst, b []byte) ([]byte, []byte) {
	if len(b) > 1 {
		return append(dst, "},"...), b[2:]
	}
	return append(dst, '}'), b[1:]
}
