package scenario

// Parsing: JSON bytes in, *File out — the decoded document plus a
// field-path → line-number index so that validation and compilation
// errors can point at the offending line of the original file.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Error is one parse or validation problem, locatable in the source
// document: File:Line names the place, Path the schema field (dotted,
// with [i] array indices), Msg what is wrong.
type Error struct {
	File string
	Line int
	Path string
	Msg  string
}

// Error formats "file:line: path: msg", omitting unknown parts.
func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		if e.Line > 0 {
			fmt.Fprintf(&b, ":%d", e.Line)
		}
		b.WriteString(": ")
	}
	if e.Path != "" {
		b.WriteString(e.Path)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// ErrorList is every problem found in one document, in document order
// where lines are known.
type ErrorList []*Error

// Error joins the list, one problem per line.
func (l ErrorList) Error() string {
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// File is a decoded scenario document plus the source mapping needed
// for precise error messages.
type File struct {
	// Doc is the normalized document (defaults applied).
	Doc Doc
	// Name is the source name used in error messages (a path, or
	// something like "request" for an HTTP body).
	Name string

	lines map[string]int
}

// Line returns the 1-based source line of a field path, walking up to
// the nearest present ancestor when the field itself was omitted
// (a missing required field is reported at its enclosing table).
// Returns 0 when nothing is known.
func (f *File) Line(path string) int {
	for path != "" {
		if n, ok := f.lines[path]; ok {
			return n
		}
		path = parentPath(path)
	}
	return 0
}

// errAt builds an *Error located at path.
func (f *File) errAt(path, format string, args ...interface{}) *Error {
	return &Error{File: f.Name, Line: f.Line(path), Path: path, Msg: fmt.Sprintf(format, args...)}
}

// parentPath strips the last path segment: "a.b[2].c" → "a.b[2]",
// "a.b[2]" → "a.b", "a" → "".
func parentPath(path string) string {
	if i := strings.LastIndexAny(path, ".["); i >= 0 {
		return path[:i]
	}
	return ""
}

// Load reads and decodes path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, path)
}

// ErrNotJSON is the one-line answer to a document in the TOML syntax
// this package used to accept alongside JSON.
var ErrNotJSON = errors.New("scenario documents are JSON; TOML support was removed")

// Decode parses, normalizes, and validates one document. name is used
// in error messages. A name ending in ".toml", or bytes whose first
// significant byte is not '{', fail with ErrNotJSON. The returned error
// is an ErrorList (possibly of one) for document problems.
func Decode(data []byte, name string) (*File, error) {
	f := &File{Name: name}
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); strings.HasSuffix(name, ".toml") ||
		len(trimmed) > 0 && trimmed[0] != '{' {
		return nil, ErrorList{{File: name, Msg: ErrNotJSON.Error()}}
	}
	if err := decodeJSON(data, f); err != nil {
		return nil, err
	}
	f.Doc.Normalize()
	if err := Validate(f); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeJSON strictly decodes JSON into f.Doc and builds the line
// index.
func decodeJSON(data []byte, f *File) error {
	f.lines = jsonLineIndex(data)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f.Doc); err != nil {
		return ErrorList{jsonError(err, data, f)}
	}
	if off, ok := TrailingData(dec, data); ok {
		return ErrorList{{File: f.Name, Line: lineAt(data, off), Msg: "trailing data after the document"}}
	}
	return nil
}

// TrailingData reports whether anything but JSON whitespace follows
// the value dec has just decoded from data, and where it starts. It is
// the one trailing-data rule of the strict decoders — a scenario
// document here, quartzd's job envelope — because neither of the
// decoder's own checks is enough: More is false before a stray '}' or
// ']', and a second Decode only notices trailing data that is itself
// JSON.
func TrailingData(dec *json.Decoder, data []byte) (offset int64, ok bool) {
	rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
	return int64(len(data) - len(rest)), len(rest) > 0
}

// jsonError converts an encoding/json error into a located *Error.
func jsonError(err error, data []byte, f *File) *Error {
	switch e := err.(type) {
	case *json.SyntaxError:
		return &Error{File: f.Name, Line: lineAt(data, e.Offset), Msg: "syntax error: " + e.Error()}
	case *json.UnmarshalTypeError:
		path := e.Field
		return &Error{File: f.Name, Line: lineAt(data, e.Offset), Path: path,
			Msg: fmt.Sprintf("cannot use JSON %s here (want %s)", e.Value, e.Type)}
	}
	// DisallowUnknownFields reports `json: unknown field "x"`; locate
	// the field by its name in the index.
	msg := err.Error()
	if name, ok := strings.CutPrefix(msg, `json: unknown field `); ok {
		name = strings.Trim(name, `"`)
		return unknownFieldError(name, f)
	}
	return &Error{File: f.Name, Msg: msg}
}

// unknownFieldError locates an unknown field by name in the line index
// and suggests the path it appeared under.
func unknownFieldError(name string, f *File) *Error {
	var paths []string
	for p := range f.lines {
		if p == name || strings.HasSuffix(p, "."+name) {
			paths = append(paths, p)
		}
	}
	sort.Slice(paths, func(i, j int) bool { return f.lines[paths[i]] < f.lines[paths[j]] })
	e := &Error{File: f.Name, Msg: fmt.Sprintf("unknown field %q", name)}
	if len(paths) > 0 {
		e.Path = paths[0]
		e.Line = f.lines[paths[0]]
		e.Msg = "unknown field"
	}
	return e
}

// lineAt converts a byte offset to a 1-based line number.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

// jsonLineIndex walks the raw token stream and records the source line
// of every field path ("sim.workload.kind") and array element
// ("faults.events[1]"). Best effort: an unparsable document yields a
// partial index, which is fine — it is only consulted for messages.
func jsonLineIndex(data []byte) map[string]int {
	index := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()

	type frame struct {
		prefix  string
		isObj   bool
		key     string // last key seen (objects)
		wantKey bool
		idx     int // next element (arrays)
	}
	var stack []frame

	// childPath names the value position about to be consumed.
	childPath := func() string {
		if len(stack) == 0 {
			return ""
		}
		top := &stack[len(stack)-1]
		if top.isObj {
			if top.prefix == "" {
				return top.key
			}
			return top.prefix + "." + top.key
		}
		return fmt.Sprintf("%s[%d]", top.prefix, top.idx)
	}
	// consumed advances the parent frame past one completed value.
	consumed := func() {
		if len(stack) == 0 {
			return
		}
		top := &stack[len(stack)-1]
		if top.isObj {
			top.wantKey = true
		} else {
			top.idx++
		}
	}

	for {
		tok, err := dec.Token()
		if err != nil {
			return index
		}
		// The offset after the token ends still lands on the token's
		// own line for everything we index (keys and scalars do not
		// span lines).
		line := lineAt(data, dec.InputOffset())
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{', '[':
				prefix := childPath()
				if prefix != "" {
					index[prefix] = line
				}
				stack = append(stack, frame{prefix: prefix, isObj: t == '{', wantKey: t == '{'})
			case '}', ']':
				stack = stack[:len(stack)-1]
				consumed()
			}
		case string:
			if len(stack) > 0 && stack[len(stack)-1].isObj && stack[len(stack)-1].wantKey {
				top := &stack[len(stack)-1]
				top.key = t
				top.wantKey = false
				index[childPath()] = line
			} else {
				index[childPath()] = line
				consumed()
			}
		default: // number, bool, null
			if p := childPath(); p != "" {
				index[p] = line
			}
			consumed()
		}
	}
}
