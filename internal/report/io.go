package report

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// The on-disk report format is a line-oriented text file:
//
//	# unclean report v1
//	tag: bot
//	type: Provided
//	class: Bots
//	from: 2006-10-01
//	to: 2006-10-14
//	method: Bot addresses acquired through private reports
//	addresses:
//	12.34.56.78
//	...
//
// Header keys may appear in any order; "addresses:" starts the body. Blank
// lines and '#' comments are ignored everywhere.

const magic = "# unclean report v1"

// maxLine is the longest line Read accepts, newline excluded.
const maxLine = 64*1024 - 1

// Write serializes the report to w in the text format.
func (r *Report) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)
	fmt.Fprintf(bw, "tag: %s\n", r.Tag)
	fmt.Fprintf(bw, "type: %s\n", r.Type)
	fmt.Fprintf(bw, "class: %s\n", r.Class)
	fmt.Fprintf(bw, "from: %s\n", r.ValidFrom.Format("2006-01-02"))
	fmt.Fprintf(bw, "to: %s\n", r.ValidTo.Format("2006-01-02"))
	fmt.Fprintf(bw, "method: %s\n", r.Method)
	fmt.Fprintln(bw, "addresses:")
	var err error
	r.Addrs.Each(func(a netaddr.Addr) bool {
		_, err = fmt.Fprintln(bw, a)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a report in the text format. It validates the magic line,
// all header fields, and every address.
func Read(rd io.Reader) (*Report, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), maxLine+1)
	if !sc.Scan() {
		return nil, fmt.Errorf("report: empty input")
	}
	if strings.TrimSpace(sc.Text()) != magic {
		return nil, fmt.Errorf("report: bad magic line %q", sc.Text())
	}
	r := &Report{}
	b := ipset.NewBuilder(0)
	inBody := false
	sawTag, sawFrom, sawTo := false, false, false
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if inBody {
			a, err := netaddr.ParseAddr(text)
			if err != nil {
				return nil, fmt.Errorf("report: line %d: %v", line, err)
			}
			b.Add(a)
			continue
		}
		if text == "addresses:" {
			inBody = true
			continue
		}
		key, value, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("report: line %d: malformed header %q", line, text)
		}
		value = strings.TrimSpace(value)
		// Write emits "key: value", which can be a byte longer than the
		// line read; refuse a header whose written form would not read
		// back.
		if len(key)+2+len(value) > maxLine {
			return nil, fmt.Errorf("report: line %d: header %q longer than %d bytes", line, key, maxLine)
		}
		var err error
		switch key {
		case "tag":
			r.Tag, sawTag = value, true
		case "type":
			r.Type, err = ParseType(value)
		case "class":
			r.Class, err = ParseClass(value)
		case "from":
			r.ValidFrom, err = time.Parse("2006-01-02", value)
			sawFrom = true
		case "to":
			r.ValidTo, err = time.Parse("2006-01-02", value)
			sawTo = true
		case "method":
			r.Method = value
		default:
			return nil, fmt.Errorf("report: line %d: unknown header key %q", line, key)
		}
		if err != nil {
			return nil, fmt.Errorf("report: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: %v", err)
	}
	if !sawTag || !sawFrom || !sawTo {
		return nil, fmt.Errorf("report: missing required header (tag/from/to)")
	}
	if !inBody {
		return nil, fmt.Errorf("report: missing addresses section")
	}
	if r.ValidTo.Before(r.ValidFrom) {
		return nil, fmt.Errorf("report: validity window ends (%s) before it starts (%s)",
			r.ValidTo.Format("2006-01-02"), r.ValidFrom.Format("2006-01-02"))
	}
	r.Addrs = b.Build()
	return r, nil
}
