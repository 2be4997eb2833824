// Package trace records executions of ring algorithms and renders them in
// the notation of the paper's figures: Figure 1 (positions of the primary
// 'P' and secondary 'S' tokens over time) and Figure 4 (the full
// x_i.rts_i.tra_i local states annotated with token letters and the rule
// each enabled process is about to execute). It also exports CSV for
// downstream analysis.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// Recorder captures the sequence of configurations and the moves taken
// between them. Install Attach on a simulator before running it.
type Recorder[S comparable] struct {
	// Configs holds γ0, γ1, …; Configs[t] is the configuration before
	// Moves[t] executes.
	Configs []statemodel.Config[S]
	// Moves holds the moves of each transition; len(Moves) is
	// len(Configs)−1 once recording ends.
	Moves [][]statemodel.Move
}

// Attach registers the recorder on sim and snapshots the initial
// configuration. It overwrites any existing OnStep hook.
func (r *Recorder[S]) Attach(sim *statemodel.Simulator[S]) {
	r.Configs = append(r.Configs, sim.Config())
	sim.OnStep = func(_ int, moves []statemodel.Move, cfg statemodel.Config[S]) {
		ms := make([]statemodel.Move, len(moves))
		copy(ms, moves)
		r.Moves = append(r.Moves, ms)
		r.Configs = append(r.Configs, cfg.Clone())
	}
}

// ruleOf returns the rule process p executes in transition t, or 0.
func (r *Recorder[S]) ruleOf(t, p int) int {
	if t >= len(r.Moves) {
		return 0
	}
	for _, m := range r.Moves[t] {
		if m.Process == p {
			return m.Rule
		}
	}
	return 0
}

// RenderSSRmin renders a Figure-4 style table for an SSRmin execution:
// one row per configuration, one column per process, cells like
// "3.1.0PS/2" — local state, token letters, and the rule the process
// executes in the transition leaving this row.
func RenderSSRmin(w io.Writer, r *Recorder[core.State]) error {
	if len(r.Configs) == 0 {
		return nil
	}
	n := len(r.Configs[0])
	head := make([]string, n+1)
	head[0] = "Step"
	for i := 0; i < n; i++ {
		head[i+1] = fmt.Sprintf("P%d", i)
	}
	rows := [][]string{head}
	for t, cfg := range r.Configs {
		row := make([]string, n+1)
		row[0] = strconv.Itoa(t + 1)
		for i := 0; i < n; i++ {
			row[i+1] = ssrminCell(cfg, i, r.ruleOf(t, i))
		}
		rows = append(rows, row)
	}
	return writeAligned(w, rows)
}

func ssrminCell(cfg statemodel.Config[core.State], i, rule int) string {
	v := cfg.View(i)
	cell := cfg[i].String()
	if core.HasPrimary(v) {
		cell += "P"
	}
	if core.HasSecondary(v) {
		cell += "S"
	}
	if rule != 0 {
		cell += "/" + strconv.Itoa(rule)
	}
	return cell
}

// RenderTokens renders a Figure-1 style table: only the token letters per
// process ('P', 'S', 'PS' or '—'), one row per configuration.
func RenderTokens(w io.Writer, r *Recorder[core.State]) error {
	if len(r.Configs) == 0 {
		return nil
	}
	n := len(r.Configs[0])
	head := make([]string, n+1)
	head[0] = "Step"
	for i := 0; i < n; i++ {
		head[i+1] = fmt.Sprintf("P%d", i)
	}
	rows := [][]string{head}
	for t, cfg := range r.Configs {
		row := make([]string, n+1)
		row[0] = strconv.Itoa(t + 1)
		for i := 0; i < n; i++ {
			v := cfg.View(i)
			cell := ""
			if core.HasPrimary(v) {
				cell += "P"
			}
			if core.HasSecondary(v) {
				cell += "S"
			}
			if cell == "" {
				cell = "-"
			}
			row[i+1] = cell
		}
		rows = append(rows, row)
	}
	return writeAligned(w, rows)
}

// WriteCSV exports an SSRmin execution as CSV with one record per
// (step, process) pair: step, process, x, rts, tra, primary, secondary,
// rule.
func WriteCSV(w io.Writer, r *Recorder[core.State]) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"step", "process", "x", "rts", "tra", "primary", "secondary", "rule"}); err != nil {
		return err
	}
	for t, cfg := range r.Configs {
		for i := range cfg {
			v := cfg.View(i)
			rec := []string{
				strconv.Itoa(t),
				strconv.Itoa(i),
				strconv.Itoa(cfg[i].X),
				boolBit(cfg[i].RTS),
				boolBit(cfg[i].TRA),
				boolBit(core.HasPrimary(v)),
				boolBit(core.HasSecondary(v)),
				strconv.Itoa(r.ruleOf(t, i)),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func boolBit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// writeAligned prints rows as a fixed-width table.
func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	width := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(row)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
