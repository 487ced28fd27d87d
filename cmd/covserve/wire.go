package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"coverage"
)

// The wire path. The bodies that scale with the data — code rows in,
// MUP, coverage and plan lists out — do not go through encoding/json's
// reflection: rows are scanned byte by byte into slabs, and the three
// list replies are appended into a pooled buffer. Everything else
// (small requests, small replies, label rows) stays on encoding/json.

// skipJSONSpace drops leading JSON whitespace. The first comparison
// settles every byte that is not: the scanner calls this twice a code.
func skipJSONSpace(b []byte) []byte {
	for len(b) > 0 && b[0] <= ' ' && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}

var jsonNull = []byte("null")

// scanCodeRow decodes the JSON value at the head of data the way
// encoding/json decodes an array into a []uint8: integers 0–255 with no
// sign, fraction, exponent or leading zero, and null, which leaves a 0
// (a bare null is the empty row). It appends the codes to dst and
// returns the bytes after the value. ok is false for everything else:
// malformed or out-of-range input, and the one other form
// encoding/json takes — a base64 string — which callers leave to it.
func scanCodeRow(dst []uint8, data []byte) (row []uint8, rest []byte, ok bool) {
	data = skipJSONSpace(data)
	if rest, null := bytes.CutPrefix(data, jsonNull); null {
		return dst, rest, true
	}
	if len(data) == 0 || data[0] != '[' {
		return nil, nil, false
	}
	data = skipJSONSpace(data[1:])
	if len(data) > 0 && data[0] == ']' {
		return dst, data[1:], true
	}
	for {
		if len(data) == 0 {
			return nil, nil, false
		}
		var v uint
		switch c := data[0]; {
		case c == '0':
			// A leading zero is the whole number: "01" fails below,
			// where a ',' or ']' must follow.
			data = data[1:]
		case '1' <= c && c <= '9':
			v = uint(c - '0')
			data = data[1:]
			for len(data) > 0 && '0' <= data[0] && data[0] <= '9' {
				if v = v*10 + uint(data[0]-'0'); v > 255 {
					return nil, nil, false
				}
				data = data[1:]
			}
		default:
			var null bool
			if data, null = bytes.CutPrefix(data, jsonNull); !null {
				return nil, nil, false
			}
		}
		dst = append(dst, uint8(v))
		data = skipJSONSpace(data)
		if len(data) == 0 {
			return nil, nil, false
		}
		switch data[0] {
		case ',':
			data = skipJSONSpace(data[1:])
		case ']':
			return dst, data[1:], true
		default:
			return nil, nil, false
		}
	}
}

// rowSlab carves row buffers out of one allocation per `rows` rows. A
// slab is never recycled: the rows cut from it go to the store, whose
// group commit holds them until the append returns, and later rows are
// cut from a fresh slab.
type rowSlab struct {
	buf       []uint8
	dim, rows int
}

// next returns an empty buffer with room for exactly one row. A scan
// that overruns it (a row wider than the schema, rejected afterwards)
// reallocates and leaves the slab untouched.
func (s *rowSlab) next() []uint8 {
	if cap(s.buf)-len(s.buf) < s.dim {
		s.buf = make([]uint8, 0, s.rows*s.dim)
	}
	return s.buf[len(s.buf) : len(s.buf) : len(s.buf)+s.dim]
}

// keep commits row, scanned into the last next(), unless it overran
// that buffer and lives elsewhere.
func (s *rowSlab) keep(row []uint8) {
	if len(row) <= s.dim {
		s.buf = s.buf[:len(s.buf)+len(row)]
	}
}

// checkCodeRow validates one row of raw codes against the schema. The
// engine checks again; this is where the client hears which row.
func checkCodeRow(schema *coverage.Schema, row []uint8) error {
	cards := schema.Cards()
	if len(row) != len(cards) {
		return fmt.Errorf("%d values for a %d-attribute schema", len(row), len(cards))
	}
	for i, v := range row {
		if int(v) >= cards[i] {
			return fmt.Errorf("value %d for attribute %q exceeds cardinality %d", v, schema.Attr(i).Name, cards[i])
		}
	}
	return nil
}

// codeRows is the "codes" field of a mutate request: rows of raw value
// codes, decoded by scanCodeRow and checked against the schema the
// request was built with.
type codeRows struct {
	schema *coverage.Schema
	rows   [][]uint8
}

func (c *codeRows) UnmarshalJSON(data []byte) error {
	rows, rest, ok := scanCodeRows(data, c.schema.Dim())
	if !ok || len(skipJSONSpace(rest)) > 0 {
		// Off the scanner's grammar — a base64 row, or not rows at all:
		// encoding/json accepts or words the refusal, as it always has.
		rows = nil
		if err := json.Unmarshal(data, &rows); err != nil {
			return err
		}
	}
	if err := checkCodeRows(c.schema, rows); err != nil {
		return err
	}
	c.rows = rows
	return nil
}

// checkCodeRows validates decoded "codes" rows, naming the first bad one.
func checkCodeRows(schema *coverage.Schema, rows [][]uint8) error {
	for n, row := range rows {
		if err := checkCodeRow(schema, row); err != nil {
			return fmt.Errorf("codes row %d: %w", n, err)
		}
	}
	return nil
}

// scanCodeRows decodes the JSON array of code rows (or null) at the
// head of data, when its rows are all on scanCodeRow's grammar, and
// returns the bytes after it.
func scanCodeRows(data []byte, dim int) (rows [][]uint8, rest []byte, ok bool) {
	data = skipJSONSpace(data)
	if rest, null := bytes.CutPrefix(data, jsonNull); null {
		return nil, rest, true
	}
	if len(data) == 0 || data[0] != '[' {
		return nil, nil, false
	}
	// A row of dim codes takes at least 2·dim+2 bytes with its comma;
	// the hint sizes small bodies exactly and caps large ones at the
	// NDJSON batch.
	hint := min(ndjsonBatchRows, len(data)/(2*dim+2)+1)
	slab := rowSlab{dim: dim, rows: hint}
	rows = make([][]uint8, 0, hint)
	data = skipJSONSpace(data[1:])
	if len(data) > 0 && data[0] == ']' {
		return rows, data[1:], true
	}
	for {
		row, rest, ok := scanCodeRow(slab.next(), data)
		if !ok {
			return nil, nil, false
		}
		slab.keep(row)
		rows = append(rows, row)
		data = skipJSONSpace(rest)
		if len(data) == 0 {
			return nil, nil, false
		}
		switch data[0] {
		case ',':
			data = data[1:]
		case ']':
			return rows, data[1:], true
		default:
			return nil, nil, false
		}
	}
}

// scanCodesBody decodes a mutate body of exactly the form
// {"codes": rows} — one literal key, rows on scanCodeRows' grammar,
// nothing but space around — and reports false for any other body.
func scanCodesBody(body []byte, dim int) ([][]uint8, bool) {
	var ok bool
	for _, tok := range []string{"{", `"codes"`, ":"} {
		if body, ok = bytes.CutPrefix(skipJSONSpace(body), []byte(tok)); !ok {
			return nil, false
		}
	}
	rows, body, ok := scanCodeRows(body, dim)
	if !ok {
		return nil, false
	}
	body, ok = bytes.CutPrefix(skipJSONSpace(body), []byte("}"))
	return rows, ok && len(skipJSONSpace(body)) == 0
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes encoding/json copies into a string
// unescaped under its default (HTML-safe) settings.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string, byte for byte what
// json.Marshal writes: control characters, quotes, backslashes, the
// HTML trio and U+2028/U+2029 escaped, invalid UTF-8 as U+FFFD.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// The conversion of at most UTFMax bytes stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// descTable holds one schema's pattern descriptions taken apart: the
// JSON-escaped text of every "name=value" term, built once per server.
// A description is its terms joined by ", ", or "(any)" when every
// attribute is a wildcard, and escaping commutes with that join: the
// separators are ASCII, so no escape or UTF-8 sequence crosses a term
// boundary. FuzzDescriptionFragments holds it to the escaped
// AppendDescription.
type descTable struct {
	schema *coverage.Schema
	terms  [][]string // terms[i][v]: attribute i at code v, escaped, unquoted
	// elemLen[i][v] prices attribute i at code v in a /mups element, so
	// that mupLen is one add an attribute: the code's compact notation,
	// its term and a separator, plus termUnit; a wildcard is its "X"; a
	// code past the schema is badCode.
	elemLen [][256]int64
}

const (
	termUnit = 1 << 40 // above any sum of lengths, so a sum's quotient counts its terms
	badCode  = 1 << 55 // above any sum of ≤ 128 priced codes
)

func newDescTable(schema *coverage.Schema) *descTable {
	d := &descTable{schema: schema, terms: make([][]string, schema.Dim()), elemLen: make([][256]int64, schema.Dim())}
	var buf []byte
	for i := range d.terms {
		a := schema.Attr(i)
		d.terms[i] = make([]string, len(a.Values))
		for v := range d.elemLen[i] {
			d.elemLen[i][v] = badCode
		}
		d.elemLen[i][coverage.Wildcard] = int64(len("X"))
		for v, label := range a.Values {
			buf = appendJSONString(buf[:0], a.Name+"="+label)
			d.terms[i][v] = string(buf[1 : len(buf)-1])
			d.elemLen[i][v] = int64(len(coverage.Pattern{uint8(v)}.String())+len(d.terms[i][v])+len(", ")) + termUnit
		}
	}
	return d
}

// appendJSON appends p's description as a JSON string: the bytes
// appendJSONString(dst, schema.AppendDescription(nil, p)) writes. A
// pattern whose length or a code does not fit the schema (none a
// server builds) takes that path itself.
func (d *descTable) appendJSON(dst []byte, p coverage.Pattern) []byte {
	if len(p) != len(d.terms) {
		return appendJSONString(dst, d.schema.AppendDescription(nil, p))
	}
	dst = append(dst, '"')
	start := len(dst)
	for i, v := range p {
		switch {
		case v == coverage.Wildcard:
			continue
		case int(v) >= len(d.terms[i]):
			return appendJSONString(dst[:start-1], d.schema.AppendDescription(nil, p))
		case len(dst) > start:
			dst = append(dst, ", "...)
		}
		dst = append(dst, d.terms[i][v]...)
	}
	if len(dst) == start {
		dst = append(dst, "(any)"...)
	}
	return append(dst, '"')
}

// mupLen is the length of p's element in a /mups body past its fixed
// text: its pattern, level and description.
func (d *descTable) mupLen(p coverage.Pattern) int {
	if len(p) == len(d.elemLen) {
		var sum int64
		for i, v := range p {
			sum += d.elemLen[i][v]
		}
		if sum < badCode {
			level, n := sum/termUnit, int(sum%termUnit)
			if level == 0 {
				return n + len(`0"(any)"`)
			}
			// Of the separators priced with the terms, all but one
			// join them and the last pays for the two quotes.
			return n + intLen(level)
		}
	}
	return len(p.String()) + intLen(int64(p.Level())) + len(d.appendJSON(nil, p))
}

// intLen is the length of v in decimal.
func intLen(v int64) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], v, 10))
}

// wireBuf is what a hand-encoded reply is built in.
type wireBuf struct{ body []byte }

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledBody is the largest body buffer returned to the pool; a
// bigger one is dropped so that one huge reply does not pin its memory
// for the life of the process.
const maxPooledBody = 4 << 20

func (b *wireBuf) raw(s string) { b.body = append(b.body, s...) }
func (b *wireBuf) int(v int64)  { b.body = strconv.AppendInt(b.body, v, 10) }
func (b *wireBuf) str(s string) { b.body = appendJSONString(b.body, s) }

// pattern writes p in compact notation; Pattern.AppendText guarantees
// it needs no escaping.
func (b *wireBuf) pattern(p coverage.Pattern) {
	b.body = append(b.body, '"')
	b.body = p.AppendText(b.body)
	b.body = append(b.body, '"')
}

func (b *wireBuf) description(d *descTable, p coverage.Pattern) {
	b.body = d.appendJSON(b.body, p)
}

// The three encoders below write exactly what json.Marshal writes for
// mupsResponse, coverageResponse and planResponse (plus the Encoder's
// newline); TestWireBodiesMatchMarshal holds them to it.

func (b *wireBuf) mups(d *descTable, rep *coverage.Report) {
	b.mupsHead(rep)
	for i, p := range rep.MUPs {
		if i > 0 {
			b.raw(",")
		}
		b.mup(d, p)
	}
	b.mupsTail(rep)
}

// mupsHead writes a /mups body up to its first element, mup one
// element, and mupsTail the rest after the last. An element depends on
// its pattern and the schema alone, so equal patterns encode to equal
// bytes in every body.
func (b *wireBuf) mupsHead(rep *coverage.Report) {
	b.raw(`{"rows":`)
	b.int(rep.Rows())
	b.raw(`,"threshold":`)
	b.int(rep.Threshold)
	b.raw(`,"total_mups":`)
	b.int(int64(len(rep.MUPs)))
	b.raw(`,"mups":[`)
}

func (b *wireBuf) mup(d *descTable, p coverage.Pattern) {
	b.raw(`{"pattern":`)
	b.pattern(p)
	b.raw(`,"level":`)
	b.int(int64(p.Level()))
	b.raw(`,"description":`)
	b.description(d, p)
	b.raw("}")
}

func (b *wireBuf) mupsTail(rep *coverage.Report) {
	b.raw(`],"algorithm":`)
	b.str(rep.Stats.Algorithm)
	b.raw(`,"coverage_probes":`)
	b.int(rep.Stats.CoverageProbes)
	b.raw("}\n")
}

// coverage writes one result per pattern; threshold > 0 adds the
// covered verdicts.
func (b *wireBuf) coverage(d *descTable, rows int64, ps []coverage.Pattern, covs []int64, threshold int64) {
	b.raw(`{"rows":`)
	b.int(rows)
	b.raw(`,"results":[`)
	for i, p := range ps {
		if i > 0 {
			b.raw(",")
		}
		b.raw(`{"pattern":`)
		b.pattern(p)
		b.raw(`,"description":`)
		b.description(d, p)
		b.raw(`,"coverage":`)
		b.int(covs[i])
		if threshold > 0 {
			b.raw(`,"covered":`)
			b.body = strconv.AppendBool(b.body, covs[i] >= threshold)
		}
		b.raw("}")
	}
	b.raw("]}\n")
}

func (b *wireBuf) plan(d *descTable, threshold int64, plan *coverage.Plan) {
	b.raw(`{"threshold":`)
	b.int(threshold)
	b.raw(`,"targets":`)
	b.int(int64(len(plan.Targets)))
	b.raw(`,"tuples_to_collect":`)
	b.int(int64(plan.NumTuples()))
	b.raw(`,"algorithm":`)
	b.str(plan.Stats.Algorithm)
	b.raw(`,"suggestions":[`)
	for i, sg := range plan.Suggestions {
		if i > 0 {
			b.raw(",")
		}
		b.raw(`{"collect":`)
		b.pattern(sg.Collect)
		b.raw(`,"description":`)
		b.description(d, sg.Collect)
		b.raw(`,"example_combination":`)
		b.pattern(sg.Combo)
		b.raw(`,"gaps_closed":`)
		b.int(int64(len(sg.Hits)))
		b.raw("}")
	}
	b.raw("]}\n")
}

// mupsBody encodes the /mups reply for rep into a buffer of its own,
// allocated at exactly its length: a body kept with the engine's cache
// is never regrown and holds no slack.
func (d *descTable) mupsBody(rep *coverage.Report) []byte {
	b := wireBuf{body: make([]byte, 0, d.mupsBodySize(rep))}
	b.mups(d, rep)
	return b.body
}

// mupsBodySize is the length of rep's /mups body.
func (d *descTable) mupsBodySize(rep *coverage.Report) int {
	n := mupsFrameLen(rep)
	for i, p := range rep.MUPs {
		if i > 0 {
			n++
		}
		n += d.mupElemLen(p)
	}
	return n
}

// mupsFrameLen is the length of rep's /mups body less its elements and
// the commas between them.
func mupsFrameLen(rep *coverage.Report) int {
	return len(`{"rows":,"threshold":,"total_mups":,"mups":[],"algorithm":,"coverage_probes":}`+"\n") +
		intLen(rep.Rows()) + intLen(rep.Threshold) + intLen(int64(len(rep.MUPs))) +
		len(appendJSONString(nil, rep.Stats.Algorithm)) + intLen(rep.Stats.CoverageProbes)
}

// mupElemLen is the length of p's element in a /mups body.
func (d *descTable) mupElemLen(p coverage.Pattern) int {
	return len(`{"pattern":"","level":,"description":}`) + d.mupLen(p)
}

// mupsBodyFrom is mupsBody for a report whose search replaced an
// earlier result: prev lists that result's MUPs and prevBody is its
// /mups body. Both lists are walked in pattern.Compare order; each run
// of MUPs present in both is copied from prevBody in one piece, whose
// offsets come from mupElemLen, and only the MUPs new to rep are
// encoded. The bytes are mupsBody's. When prevBody is nil, either list
// is out of order, or prevBody's elements do not span what prev prices
// them at, it encodes from scratch.
func (d *descTable) mupsBodyFrom(rep *coverage.Report, prev []coverage.Pattern, prevBody []byte) []byte {
	start := bytes.IndexByte(prevBody, '[') + 1 // the header holds no '['
	if start == 0 {
		return d.mupsBody(rep)
	}
	// off[i] is where prev's element i starts in prevBody, off[len(prev)]
	// one past the comma that would follow the last; lvl[i] is its level.
	off := make([]int, len(prev)+1)
	lvl := make([]int, len(prev))
	off[0] = start
	for i, p := range prev {
		lvl[i] = p.Level()
		if i > 0 && compareAt(lvl[i-1], prev[i-1], lvl[i], p) > 0 {
			return d.mupsBody(rep)
		}
		off[i+1] = off[i] + d.mupElemLen(p) + 1
	}
	end := off[0] // where the array closes
	if len(prev) > 0 {
		end = off[len(prev)] - 1
	}
	if end >= len(prevBody) || prevBody[end] != ']' {
		return d.mupsBody(rep)
	}
	// src[i] is the index in prev of rep's MUP i, or -1 for a new one.
	src := make([]int32, len(rep.MUPs))
	n := mupsFrameLen(rep)
	for i, j, last := 0, 0, 0; i < len(rep.MUPs); i++ {
		p, l := rep.MUPs[i], rep.MUPs[i].Level()
		if i > 0 {
			if compareAt(last, rep.MUPs[i-1], l, p) > 0 {
				return d.mupsBody(rep)
			}
			n++
		}
		last = l
		for j < len(prev) && compareAt(lvl[j], prev[j], l, p) < 0 {
			j++
		}
		if j < len(prev) && lvl[j] == l && bytes.Equal(prev[j], p) {
			src[i] = int32(j)
			n += off[j+1] - off[j] - 1
			j++
		} else {
			src[i] = -1
			n += d.mupElemLen(p)
		}
	}
	b := wireBuf{body: make([]byte, 0, n)}
	b.mupsHead(rep)
	for i := 0; i < len(src); {
		if i > 0 {
			b.raw(",")
		}
		if src[i] < 0 {
			b.mup(d, rep.MUPs[i])
			i++
			continue
		}
		// A run: consecutive here and consecutive in prev.
		k := i + 1
		for k < len(src) && src[k] == src[k-1]+1 {
			k++
		}
		b.body = append(b.body, prevBody[off[src[i]]:off[src[k-1]+1]-1]...)
		i = k
	}
	b.mupsTail(rep)
	return b.body
}

// compareAt is pattern.Compare for patterns whose levels are known.
func compareAt(la int, a coverage.Pattern, lb int, b coverage.Pattern) int {
	if la != lb {
		return la - lb
	}
	return bytes.Compare(a, b)
}

// newWireBuf takes an empty buffer from the pool; send returns it.
func newWireBuf() *wireBuf {
	b := wireBufs.Get().(*wireBuf)
	b.body = b.body[:0]
	return b
}

// send writes the body as a 200 with its Content-Length and gives the
// buffer back.
func (b *wireBuf) send(w http.ResponseWriter) {
	writeBody(w, b.body)
	if cap(b.body) > maxPooledBody {
		b.body = nil
	}
	wireBufs.Put(b)
}

// writeBody writes an encoded JSON body as a 200 with its
// Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
