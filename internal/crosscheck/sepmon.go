// Token-separation monitoring: the graceful-handover geometry behind
// Theorem 3. In a legitimate SSRmin configuration the primary and
// secondary token holders are the same process or ring neighbors, so the
// ring distance between them — the handover gap Dastidar & Herman bound
// for their unidirectional rings — must settle to at most one hop. A
// larger settled separation means a token escaped the handshake: the two
// privileges circulate independently, which the census alone cannot see
// (it still counts two holders).
package crosscheck

import "fmt"

// settleWindows tracks perturbation instants and answers whether an
// instant is inside a settle window. Both ends are closed: an instant
// exactly on the deadline (t == perturb + grace) is still graced,
// matching the LinkMonitor's tolerance of exact arrival-instant ties —
// invariants are required to hold strictly after the window, and every
// checker sharing a windows instance applies the same boundary rule.
type settleWindows struct {
	grace    float64
	perturbs []float64 // nondecreasing perturbation instants
}

// perturb opens a settle window at instant t.
func (w *settleWindows) perturb(t float64) { w.perturbs = append(w.perturbs, t) }

// graced reports whether instant t falls inside a settle window.
func (w *settleWindows) graced(t float64) bool {
	for i := len(w.perturbs) - 1; i >= 0; i-- {
		if w.perturbs[i] <= t {
			return t-w.perturbs[i] <= w.grace
		}
	}
	return false
}

// SeparationMonitor verifies the separation invariant over one engine's
// run: outside settle windows, whenever the configuration has exactly one
// primary and exactly one secondary token holder, the ring distance
// between them must not exceed the scenario's MaxSeparation. Instants
// with any other holder multiplicity are skipped — the census checker
// owns those.
type SeparationMonitor struct {
	engine     string
	max        int
	windows    *settleWindows
	observed   int
	maxSeen    int // largest settled separation observed
	violations []Violation
	truncated  int
}

// NewSeparationMonitor returns a monitor enforcing distance ≤ max outside
// the settle windows of w. The windows instance is shared with the
// engine's census checker so both invariants see identical grace
// boundaries.
func NewSeparationMonitor(engine string, max int, w *settleWindows) *SeparationMonitor {
	return &SeparationMonitor{engine: engine, max: max, windows: w, maxSeen: -1}
}

// observe feeds one instant with singleton holders p and s dist hops
// apart (-1: a holder is not a ring member, as mid-churn). Every tier
// feeds it through observeTracked, which skips instants whose holder sets
// are not singletons.
func (m *SeparationMonitor) observe(t float64, p, s, dist int) {
	if dist < 0 {
		return
	}
	m.observed++
	if m.windows.graced(t) {
		return
	}
	if dist > m.maxSeen {
		m.maxSeen = dist
	}
	if dist <= m.max {
		return
	}
	if len(m.violations) >= maxViolations {
		m.truncated++
		return
	}
	m.violations = append(m.violations, Violation{
		Engine: m.engine, Kind: "separation", At: t,
		Detail: fmt.Sprintf("primary holder %d and secondary holder %d are %d hops apart (settled bound %d)",
			p, s, dist, m.max),
	})
}

// finish folds the monitor's outcome into res.
func (m *SeparationMonitor) finish(res *EngineResult) {
	res.SeparationObs = m.observed
	res.MaxSeparation = m.maxSeen
	res.Violations = append(res.Violations, m.violations...)
	if m.truncated > 0 {
		res.Violations = append(res.Violations, Violation{
			Engine: m.engine, Kind: "separation", At: -1,
			Detail: fmt.Sprintf("%d further separation violations truncated", m.truncated),
		})
	}
}

// hops is the minimal hop count between positions ia and ib on a ring of
// size positions.
func hops(ia, ib, size int) int {
	d := ia - ib
	if d < 0 {
		d = -d
	}
	if back := size - d; back < d {
		return back
	}
	return d
}
