// Package report renders experiment tables in multiple formats — aligned
// text for the terminal, GitHub markdown for documents, CSV for plotting —
// from one data structure, so experiment code builds rows once and the
// caller picks the output.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Format selects an output renderer.
type Format int

// Supported formats.
const (
	// Text is an aligned fixed-width table.
	Text Format = iota
	// Markdown is a GitHub-flavored markdown table.
	Markdown
	// CSV is comma-separated values with a header record.
	CSV
)

// ParseFormat maps a CLI string to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return Text, nil
	case "md", "markdown":
		return Markdown, nil
	case "csv":
		return CSV, nil
	}
	return Text, fmt.Errorf("report: unknown format %q (want text|md|csv)", s)
}

// Table is a header plus rows of stringified cells.
type Table struct {
	// Title labels the table (emitted as a comment/header where the
	// format allows).
	Title  string
	header []string
	rows   [][]string
}

// New creates a table with the given column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells are formatted like fmt %v with float64
// compacted to 4 significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table in the chosen format.
func (t *Table) Render(w io.Writer, f Format) error {
	switch f {
	case Text:
		return t.renderText(w)
	case Markdown:
		return t.renderMarkdown(w)
	case CSV:
		return t.renderCSV(w)
	}
	return fmt.Errorf("report: bad format %d", f)
}

func (t *Table) widths() []int {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	return width
}

func (t *Table) renderText(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	width := t.widths()
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c)
			} else {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) renderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) renderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
