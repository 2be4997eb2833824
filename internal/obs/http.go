package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
)

// WriteText writes the observer's counters and histograms as a plain-text
// metrics exposition: one `name value` line per counter, with per-rule
// and per-bucket breakdowns in `name{label=value}` form. The format is
// stable and line-oriented so it can be scraped, diffed, or awk'd.
func (o *Observer) WriteText(w io.Writer) {
	if o == nil {
		fmt.Fprintln(w, "# no observer installed")
		return
	}
	fmt.Fprintf(w, "ssrmin_steps %d\n", o.C.Steps.Load())
	fmt.Fprintf(w, "ssrmin_rule_fired %d\n", o.C.RuleFired.Load())
	for r := 1; r < MaxRules; r++ {
		if v := o.C.Rules[r].Load(); v != 0 {
			fmt.Fprintf(w, "ssrmin_rule_fired{rule=%d} %d\n", r, v)
		}
	}
	fmt.Fprintf(w, "ssrmin_token_moves %d\n", o.C.TokenMoves.Load())
	fmt.Fprintf(w, "ssrmin_handovers %d\n", o.C.Handovers.Load())
	fmt.Fprintf(w, "ssrmin_msg_sent %d\n", o.C.MsgSent.Load())
	fmt.Fprintf(w, "ssrmin_msg_recv %d\n", o.C.MsgRecv.Load())
	fmt.Fprintf(w, "ssrmin_msg_dropped %d\n", o.C.MsgDropped.Load())
	fmt.Fprintf(w, "ssrmin_converged %d\n", o.C.Converged.Load())
	writeHist(w, "ssrmin_step_moves", &o.StepMoves)
	writeHist(w, "ssrmin_converge_steps", &o.ConvergeSteps)
	writeHist(w, "ssrmin_handover_gap_us", &o.HandoverGap)
}

func writeHist(w io.Writer, name string, h *Histogram) {
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum())
	snap := h.Snapshot()
	var cum int64
	for i, v := range snap {
		cum += v
		if v != 0 {
			fmt.Fprintf(w, "%s_bucket{le=%d} %d\n", name, BucketBound(i), cum)
		}
	}
}

// Handler returns an http.Handler serving the text exposition — mount it
// at /metrics.
func (o *Observer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.WriteText(w)
	})
}

// Serve starts an HTTP server on addr exposing the observer's counters
// and histograms at /metrics and Go's runtime expvars (memstats, cmdline)
// at /debug/vars; the counters are not published as expvars. It returns
// the bound address (useful with ":0") and a shutdown function.
func Serve(addr string, o *Observer) (bound string, shutdown func() error, err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", o.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}
