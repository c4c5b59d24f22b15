package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: the same rows/series the paper's
// figure or table reports.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table in aligned text form.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Series is one row of a table in machine-readable form: the first column
// names the series, the remaining columns become header->value pairs (the
// experiment's value/p50/p99 readings).
type Series struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
}

// TableJSON is a table's machine-readable form (demi-bench -json writes an
// array of these to BENCH_results.json so the bench trajectory can be
// tracked across PRs).
type TableJSON struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Series []Series   `json:"series"`
}

// ToJSON converts the table to its machine-readable form.
func (t *Table) ToJSON() TableJSON {
	tj := TableJSON{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows}
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		s := Series{Name: row[0], Values: make(map[string]string)}
		for i := 1; i < len(row) && i < len(t.Header); i++ {
			s.Values[t.Header[i]] = row[i]
		}
		tj.Series = append(tj.Series, s)
	}
	return tj
}

// WriteTablesJSON renders several tables as one JSON array (the
// BENCH_results.json document).
func WriteTablesJSON(w io.Writer, tables []*Table) error {
	arr := make([]TableJSON, 0, len(tables))
	for _, t := range tables {
		arr = append(arr, t.ToJSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}
