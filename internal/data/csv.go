package data

import (
	"fmt"
	"slices"
	"strings"
)

// Table is CSV text held column-major: Cols[j][i] is row i's cell under
// Header[j]. It is the record collection of the paper's DPR formalism
// (§3.1) for structured inputs, stored the way its extractors read it — one
// field of every row at a time.
type Table struct {
	Header []string
	Cols   [][]string
}

// Rows returns the number of rows.
func (t Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0])
}

// Col returns the cells of the column named name. A name the header does
// not hold is an error, not a column of empty strings.
func (t Table) Col(name string) ([]string, error) {
	if j := slices.Index(t.Header, name); j >= 0 {
		return t.Cols[j], nil
	}
	return nil, fmt.Errorf("data: no column %q in header %v", name, t.Header)
}

// ParseCSV implements the paper's CSVScanner (Figure 3a line 4) for the
// simple quote-free CSV the census workload uses. It parses header-led
// texts that share one header into one Table, each text's rows after the
// previous text's, and returns how many rows each text held. Blank lines
// are skipped. Cells are substrings of the texts: a row costs no
// allocation.
//
// forEach is how rows are parsed: it calls row(i) for every i in [0, n),
// in any order and concurrently if it likes — rows are independent — and
// reports whether every call returned true. It is called once per text,
// so a dataflow scanner pays one operation per file. nil is a plain loop.
func ParseCSV(forEach func(n int, row func(i int) bool) bool, texts ...string) (Table, []int, error) {
	if forEach == nil {
		forEach = func(n int, row func(int) bool) bool {
			for i := 0; i < n; i++ {
				if !row(i) {
					return false
				}
			}
			return true
		}
	}
	if len(texts) == 0 {
		return Table{}, nil, fmt.Errorf("data: no CSV input")
	}
	var header []string
	lines := make([][]string, len(texts))
	counts := make([]int, len(texts))
	total := 0
	for f, text := range texts {
		all := strings.Split(strings.TrimRight(text, "\n"), "\n")
		if all[0] == "" {
			return Table{}, nil, fmt.Errorf("data: CSV input %d is empty", f)
		}
		h := strings.Split(all[0], ",")
		if header == nil {
			header = h
		} else if !slices.Equal(h, header) {
			return Table{}, nil, fmt.Errorf("data: CSV input %d has header %v, want %v", f, h, header)
		}
		// Drop blank lines in place, so row i of this text is body[i].
		body := all[1:1]
		for _, l := range all[1:] {
			if l != "" {
				body = append(body, l)
			}
		}
		lines[f], counts[f] = body, len(body)
		total += len(body)
	}

	// One slab of cells, cut into one window per column (nil when there
	// are no rows).
	t := Table{Header: header, Cols: make([][]string, len(header))}
	if total > 0 {
		slab := make([]string, total*len(header))
		for j := range t.Cols {
			t.Cols[j], slab = slab[:total:total], slab[total:]
		}
	}
	at := 0
	for f, body := range lines {
		off := at
		if !forEach(len(body), func(i int) bool { return t.setRow(off+i, body[i]) }) {
			for i, l := range body {
				if !t.setRow(off+i, l) {
					return Table{}, nil, fmt.Errorf("data: CSV input %d: row %d has %d fields, want %d",
						f, i+1, strings.Count(l, ",")+1, len(header))
				}
			}
		}
		at += len(body)
	}
	return t, counts, nil
}

// setRow cuts line at its commas into row i's cells, and reports whether
// it had exactly one field per column.
func (t Table) setRow(i int, line string) bool {
	for j := range t.Cols {
		k := strings.IndexByte(line, ',')
		if k < 0 {
			t.Cols[j][i] = line
			return j == len(t.Cols)-1
		}
		t.Cols[j][i], line = line[:k], line[k+1:]
	}
	return false
}
