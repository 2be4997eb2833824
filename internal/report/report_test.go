package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("Convergence", "n", "steps", "bound")
	t.AddRow(3, 16, 571.0)
	t.AddRow(4, 43, 1012.25)
	return t
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"": Text, "text": Text, "md": Markdown, "markdown": Markdown, "csv": CSV, "CSV": CSV,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat accepted yaml")
	}
}

func TestRenderText(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b, Text); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Convergence", "n  steps  bound", "---", "4  43     1012"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " \n") {
		t.Error("text output has trailing spaces")
	}
}

func TestRenderMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b, Markdown); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"### Convergence", "| n | steps | bound |", "| --- | --- | --- |", "| 3 | 16 | 571 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// Pipe escaping.
	p := New("", "a")
	p.AddRow("x|y")
	b.Reset()
	p.Render(&b, Markdown)
	if !strings.Contains(b.String(), `x\|y`) {
		t.Errorf("pipe not escaped: %s", b.String())
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b, CSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || lines[0] != "n,steps,bound" || lines[1] != "3,16,571" {
		t.Fatalf("csv output:\n%s", b.String())
	}
}

func TestRowsAndBadFormat(t *testing.T) {
	tb := sample()
	if len(tb.rows) != 2 {
		t.Errorf("Rows = %d", len(tb.rows))
	}
	if err := tb.Render(&strings.Builder{}, Format(99)); err == nil {
		t.Error("bad format accepted")
	}
}
