package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The ingest wire decoder. The ingest body — /api/ingest/bulk's
// {"rows": [{"node", "app", "t", "values"}, …]} — is parsed in one pass,
// straight into rows a Wire owns and reuses. Every body gets the verdict
// and the rows json.Unmarshal gives into the server's request type:
// keys match as encoding/json matches them (exactly, else under Unicode
// case folding), unknown fields are validated and skipped, null leaves
// a field as it was (and is refused for values, as Values.UnmarshalJSON
// refuses it), a repeated list key decodes into the elements already
// there, only whitespace may follow the object, and no more than
// maxDepth containers may be open at once.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// scanner is a cursor over one JSON document, with the count of
// containers open at the cursor.
type scanner struct {
	b     []byte
	i     int
	depth int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, when it is next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes the literal word when it is next.
func (s *scanner) lit(word string) bool {
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// open consumes the container opener c ('{' or '['), after whitespace,
// and reports whether the container has members; an empty one is closed
// at once. what names the value expected when c is not next.
func (s *scanner) open(c byte, what string) (bool, error) {
	if !s.eat(c) {
		return false, s.errAt(what)
	}
	if s.depth == maxDepth {
		return false, s.errAt("nesting exceeds the maximum depth")
	}
	if s.eat(c + 2) { // '{'+2 == '}', '['+2 == ']'
		return false, nil
	}
	s.depth++
	return true, nil
}

// next consumes the separator after a member or element: true after a
// comma, false after the closer (closing the container).
func (s *scanner) next(closer byte) (bool, error) {
	if s.eat(',') {
		return true, nil
	}
	if s.eat(closer) {
		s.depth--
		return false, nil
	}
	return false, s.errAt("expected , or " + string(closer))
}

// number consumes one JSON number (strconv.ParseFloat alone would also
// take 0x1p4, +1, .5, 1., 01 and Inf) and returns its bytes.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

// digits returns the index past the run of ASCII digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str consumes one string token and returns it, quotes included; esc
// reports a backslash escape inside.
func (s *scanner) str() (tok []byte, esc, ok bool) {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return nil, false, false
	}
	for i := s.i + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			tok = b[s.i : i+1]
			s.i = i + 1
			return tok, esc, true
		case c < 0x20:
			return nil, false, false
		case c != '\\':
			i++
			continue
		}
		esc = true
		switch {
		case i+1 == len(b):
			return nil, false, false
		case escapable(b[i+1]):
			i += 2
		case b[i+1] == 'u' && i+6 <= len(b) && hex4(b[i+2:i+6]):
			i += 6
		default:
			return nil, false, false
		}
	}
	return nil, false, false
}

// escapable reports the characters a backslash may escape besides u.
func escapable(c byte) bool {
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	}
	return false
}

// hex4 reports four hex digits.
func hex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
			return false
		}
	}
	return true
}

// unquote decodes one string token the way json.Unmarshal does
// (escapes, surrogate pairs, U+FFFD for invalid UTF-8) — by calling it
// on that one token. Plain keys and app names never get here.
func unquote(tok []byte) (string, error) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// values decodes one numbers-and-nulls array into dst's backing array:
// the values pass the ingest body and Values.UnmarshalJSON share.
// null is a missing cell (NaN).
func (s *scanner) values(dst []float64) ([]float64, error) {
	out := dst[:0]
	more, err := s.open('[', "values must be an array")
	for more {
		s.ws()
		if s.lit("null") {
			out = append(out, math.NaN())
		} else {
			tok, ok := s.number()
			if !ok {
				return out, s.errAt("a values cell must be a number or null")
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return out, numberErr(tok, err)
			}
			out = append(out, f)
		}
		more, err = s.next(']')
	}
	return out, err
}

// integer decodes a JSON integer into *p as encoding/json decodes into
// an int; null leaves *p as it was.
func (s *scanner) integer(p *int) error {
	s.ws()
	if s.lit("null") {
		return nil
	}
	tok, ok := s.number()
	if !ok {
		return s.errAt("expected an integer")
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err == nil && int64(int(n)) != n {
		err = strconv.ErrRange
	}
	if err != nil {
		return numberErr(tok, err)
	}
	*p = int(n)
	return nil
}

// errAt reports a malformed body at the cursor.
func (s *scanner) errAt(what string) error {
	return fmt.Errorf("fleet: %s (byte %d of the body)", what, s.i)
}

// numberErr reports a number token that does not fit its field.
func numberErr(tok []byte, err error) error {
	return fmt.Errorf("fleet: number %q: %w", tok, err)
}

// Wire decodes ingest request bodies into rows it owns: once it has
// seen a batch shape, it decodes that shape again without allocating.
// The rows one decode returns (Values included) are overwritten by the
// next. Not safe for concurrent use; pool instances.
type Wire struct {
	scanner
	rows []Row    // every slot decoded into so far; a batch is a prefix
	apps []string // per slot, the last app decoded into it (interning)
	// hw counts the slots written since this body last emptied its list.
	// Like the elements past the end of a slice encoding/json shortened,
	// a repeated list key decodes into them as they stand; any later
	// slot starts zeroed.
	hw   int
	objs [maxDepth/64 + 1]uint64 // skip's container stack: bit set = object
}

// DecodeBulk decodes one /api/ingest/bulk body.
//
//albacheck:hotpath
func (w *Wire) DecodeBulk(body []byte) ([]Row, error) {
	w.scanner = scanner{b: body}
	w.hw = 0
	n := 0
	w.ws()
	if !w.lit("null") {
		more, err := w.open('{', "the body must be a JSON object")
		for more {
			var key []byte
			if key, err = w.key(); err != nil {
				break
			}
			if keyIs(key, "rows") {
				n, err = w.list()
			} else {
				err = w.skip()
			}
			if err != nil {
				break
			}
			more, err = w.next('}')
		}
		if err != nil {
			return nil, err
		}
	}
	w.ws()
	if w.i != len(w.b) {
		return nil, w.errAt("data after the JSON object")
	}
	return w.rows[:n], nil
}

// list decodes one row array and returns the list's new length: element
// i decodes into slot i, as encoding/json decodes into a slice that may
// already hold elements; null and [] empty the list.
func (w *Wire) list() (int, error) {
	w.ws()
	if w.lit("null") {
		w.hw = 0
		return 0, nil
	}
	more, err := w.open('[', "the row list must be an array")
	if !more {
		w.hw = 0
		return 0, err
	}
	n := 0
	for ; more; n++ {
		if n >= w.hw {
			w.fresh(n)
			w.hw = n + 1
		}
		w.ws()
		if !w.lit("null") { // a null row leaves its slot as it was
			if err := w.row(n); err != nil {
				return 0, err
			}
		}
		if more, err = w.next(']'); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// fresh zeroes slot i, growing the slots when i is new, and keeps its
// Values backing array and interned app for reuse.
func (w *Wire) fresh(i int) {
	if i == len(w.rows) {
		w.rows = append(w.rows, Row{})
		w.apps = append(w.apps, "")
		return
	}
	w.rows[i] = Row{Values: w.rows[i].Values[:0]}
}

// row decodes one row object into slot i.
func (w *Wire) row(i int) error {
	r := &w.rows[i]
	more, err := w.open('{', "a row must be an object")
	for more {
		var key []byte
		if key, err = w.key(); err != nil {
			return err
		}
		switch {
		case keyIs(key, "values"):
			r.Values, err = w.values(r.Values)
		case keyIs(key, "t"):
			err = w.integer(&r.T)
		case keyIs(key, "node"):
			err = w.integer(&r.Node)
		case keyIs(key, "app"):
			err = w.app(i)
		default:
			err = w.skip()
		}
		if err != nil {
			return err
		}
		more, err = w.next('}')
	}
	return err
}

// app decodes a row's app name, interned against the slot's previous
// one so a steady stream allocates nothing; null leaves it as it was.
func (w *Wire) app(i int) error {
	w.ws()
	if w.lit("null") {
		return nil
	}
	tok, esc, ok := w.str()
	if !ok {
		return w.errAt("app must be a string")
	}
	if raw := tok[1 : len(tok)-1]; !esc && utf8.Valid(raw) {
		if string(raw) != w.apps[i] {
			w.apps[i] = string(raw)
		}
	} else {
		s, err := unquote(tok)
		if err != nil {
			return err
		}
		w.apps[i] = s
	}
	w.rows[i].App = w.apps[i]
	return nil
}

// key consumes one object key and its colon and returns the key as
// encoding/json compares it: unescaped (invalid UTF-8 is left as it is;
// it cannot fold onto an ASCII field name either way).
func (w *Wire) key() ([]byte, error) {
	w.ws()
	tok, esc, ok := w.str()
	if !ok {
		return nil, w.errAt("expected an object key")
	}
	if !w.eat(':') {
		return nil, w.errAt("expected : after an object key")
	}
	if !esc {
		return tok[1 : len(tok)-1], nil
	}
	s, err := unquote(tok)
	return []byte(s), err
}

// keyIs reports whether a key selects the field name, as encoding/json
// matches them: exactly, or equal under Unicode case folding ("ROWS",
// "valueſ").
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// skip consumes one value of any shape — an unknown field's —
// validating it as encoding/json would. It does not recurse: the
// containers it opens are tracked one bit per depth in objs, so the
// nesting bound, not the body, bounds its memory.
func (w *Wire) skip() error {
	base := w.depth
	for {
		w.ws()
		c := byte(0)
		if w.i < len(w.b) {
			c = w.b[w.i]
		}
		switch {
		case c == '{' || c == '[':
			more, err := w.open(c, "")
			if err != nil {
				return err
			}
			if !more {
				break
			}
			bit := uint64(1) << (w.depth % 64)
			if c == '{' {
				w.objs[w.depth/64] |= bit
				if _, err := w.key(); err != nil {
					return err
				}
			} else {
				w.objs[w.depth/64] &^= bit
			}
			continue
		case c == '"':
			if _, _, ok := w.str(); !ok {
				return w.errAt("malformed string")
			}
		case w.lit("true"), w.lit("false"), w.lit("null"):
		default:
			if _, ok := w.number(); !ok {
				return w.errAt("expected a JSON value")
			}
		}
		// A value ended: close the containers it completes, then go on to
		// the next value.
		for w.depth > base {
			obj := w.objs[w.depth/64]&(uint64(1)<<(w.depth%64)) != 0
			closer := byte(']')
			if obj {
				closer = '}'
			}
			more, err := w.next(closer)
			if err != nil {
				return err
			}
			if !more {
				continue
			}
			if obj {
				if _, err := w.key(); err != nil {
					return err
				}
			}
			break
		}
		if w.depth == base {
			return nil
		}
	}
}
