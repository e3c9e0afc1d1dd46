package lp

import "math"

const kktTol = 1e-6 // KKT validation tolerance (scaled)

// kktValid checks a solution (x, y) against the model's optimality
// conditions: primal feasibility, stationarity with bound-respecting
// reduced-cost signs, and complementary slackness on inactive rows. Tolerances scale with the data so large-coefficient models
// are not spuriously rejected.
func (m *Model) kktValid(x, duals []float64) bool {
	n := len(m.obj)
	// Primal: variable bounds.
	for j := 0; j < n; j++ {
		scale := 1 + math.Abs(x[j])
		if m.vlo[j] > -spxInf && x[j] < m.vlo[j]-kktTol*scale {
			return false
		}
		if m.vup[j] < spxInf && x[j] > m.vup[j]+kktTol*scale {
			return false
		}
	}
	// Primal: row activities; dual sign + slackness per row.
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	for i, r := range m.rows {
		act := 0.0
		maxTerm := 0.0
		for _, t := range r.terms {
			act += t.Coeff * x[t.Var]
			if a := math.Abs(t.Coeff * x[t.Var]); a > maxTerm {
				maxTerm = a
			}
		}
		scale := 1 + maxTerm
		if r.lo > -spxInf && act < r.lo-kktTol*scale {
			return false
		}
		if r.up < spxInf && act > r.up+kktTol*scale {
			return false
		}
		loActive := r.lo > -spxInf && act <= r.lo+kktTol*scale
		upActive := r.up < spxInf && act >= r.up-kktTol*scale
		y := sgn * duals[i] // internal minimization convention
		switch {
		case !loActive && !upActive:
			if math.Abs(y) > kktTol*scale {
				return false
			}
		case loActive && !upActive:
			if y < -kktTol*scale {
				return false
			}
		case upActive && !loActive:
			if y > kktTol*scale {
				return false
			}
		}
	}
	// Stationarity: reduced costs respect the active bounds.
	d := make([]float64, n)
	maxC := 1.0
	for j := 0; j < n; j++ {
		c := m.obj[j]
		if m.sense == Maximize {
			c = -c
		}
		d[j] = c
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	for i, r := range m.rows {
		y := sgn * duals[i]
		if y == 0 {
			continue
		}
		for _, t := range r.terms {
			d[t.Var] -= t.Coeff * y
			if a := math.Abs(t.Coeff * y); a > maxC {
				maxC = a
			}
		}
	}
	tol := kktTol * maxC
	for j := 0; j < n; j++ {
		atLo := m.vlo[j] > -spxInf && x[j] <= m.vlo[j]+kktTol*(1+math.Abs(x[j]))
		atUp := m.vup[j] < spxInf && x[j] >= m.vup[j]-kktTol*(1+math.Abs(x[j]))
		switch {
		case atLo && atUp: // fixed: unconstrained
		case atLo:
			if d[j] < -tol {
				return false
			}
		case atUp:
			if d[j] > tol {
				return false
			}
		default:
			if math.Abs(d[j]) > tol {
				return false
			}
		}
	}
	return true
}
