package solver

import "math/big"

// lpFeasible decides rational feasibility of a conjunction of ≤ constraints
// over free (unbounded) variables with an exact two-phase simplex.
//
// Free variables are split x = x⁺ − x⁻ (x± ≥ 0); every row gets a slack;
// rows with negative right-hand sides are flipped and given artificial
// variables; phase 1 minimizes the artificial sum with Bland's rule (which
// cannot cycle). Feasible iff the phase-1 optimum is zero; the witness
// assignment is read off the final basis.
//
// done, when non-nil, aborts the pivot loop once closed (polled every 32
// pivots — a pivot over a large exact-rational tableau can cost
// milliseconds, so this is where wall-clock deadlines bite). A run that
// reaches the pivot cap, or finds phase 1 unbounded (which a correct
// tableau cannot), aborts too: neither proves anything. An aborted run
// returns aborted=true and the other results are meaningless.
func lpFeasible(numVars int, cons []Constraint, done <-chan struct{}) (asg []*big.Rat, feasible, aborted bool) {
	m := len(cons)
	if m == 0 {
		out := make([]*big.Rat, numVars)
		for i := range out {
			out[i] = new(big.Rat)
		}
		return out, true, false
	}
	// columns: 2*numVars split vars, m slacks, up to m artificials
	nSplit := 2 * numVars
	nCols := nSplit + m // artificials appended below
	rows := make([][]*big.Rat, m)
	rhs := make([]*big.Rat, m)
	basis := make([]int, m)

	zero := new(big.Rat)
	newRow := func(n int) []*big.Rat {
		r := make([]*big.Rat, n)
		for i := range r {
			r[i] = new(big.Rat)
		}
		return r
	}

	var artCols []int
	for i, c := range cons {
		row := newRow(nSplit + m)
		for k, v := range c.Vars {
			co := c.Coef[k]
			row[2*v].Add(row[2*v], co)
			row[2*v+1].Sub(row[2*v+1], co)
		}
		b := new(big.Rat).Set(c.RHS)
		slack := nSplit + i
		row[slack].SetInt64(1)
		if b.Sign() < 0 {
			// flip the row so b ≥ 0; slack coefficient becomes −1, so an
			// artificial variable is required
			for j := range row {
				row[j].Neg(row[j])
			}
			b.Neg(b)
			artCols = append(artCols, i)
			basis[i] = -1 // assigned after artificial columns exist
		} else {
			basis[i] = slack
		}
		rows[i] = row
		rhs[i] = b
	}
	// append artificial columns
	nArt := len(artCols)
	nTotal := nCols + nArt
	for i := range rows {
		ext := newRow(nArt)
		rows[i] = append(rows[i], ext...)
	}
	for k, i := range artCols {
		col := nCols + k
		rows[i][col].SetInt64(1)
		basis[i] = col
	}
	if nArt == 0 {
		// already feasible at the slack basis: all original vars zero
		out := make([]*big.Rat, numVars)
		for i := range out {
			out[i] = new(big.Rat)
		}
		// need rhs ≥ 0 for all rows, which holds by construction here
		return out, true, false
	}

	// phase-1 objective: minimize Σ artificials. Reduced-cost row starts as
	// −Σ (rows with artificial basis); objective value −Σ rhs of those rows.
	obj := newRow(nTotal)
	objVal := new(big.Rat)
	for _, i := range artCols {
		for j := 0; j < nTotal; j++ {
			obj[j].Sub(obj[j], rows[i][j])
		}
		objVal.Sub(objVal, rhs[i])
	}
	// zero out the artificial columns of the objective (they are basic)
	for k := range artCols {
		obj[nCols+k].Set(zero)
	}

	for iter := 0; ; iter++ {
		if iter > pivotsPerLine*(nTotal+m) {
			return nil, false, true // Bland's rule terminates long before
		}
		if done != nil && iter&0x1f == 0 {
			select {
			case <-done:
				return nil, false, true
			default:
			}
		}
		// entering: smallest index with negative reduced cost (Bland)
		enter := -1
		for j := 0; j < nTotal; j++ {
			if obj[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		// ratio test: min rhs_i / a_ie over a_ie > 0; Bland tie-break on
		// smallest basis variable
		leave := -1
		best := new(big.Rat)
		for i := 0; i < m; i++ {
			a := rows[i][enter]
			if a.Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(rhs[i], a)
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && basis[i] < basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave < 0 {
			// unbounded in a minimization with objective bounded below by 0
			// cannot happen
			return nil, false, true
		}
		pivot(rows, rhs, obj, objVal, leave, enter)
		basis[leave] = enter
	}
	if objVal.Sign() != 0 {
		return nil, false, false // artificials cannot all reach zero
	}
	// read off original variables
	vals := make([]*big.Rat, nSplit)
	for j := range vals {
		vals[j] = new(big.Rat)
	}
	for i, b := range basis {
		if b < nSplit {
			vals[b].Set(rhs[i])
		}
	}
	out := make([]*big.Rat, numVars)
	for v := 0; v < numVars; v++ {
		out[v] = new(big.Rat).Sub(vals[2*v], vals[2*v+1])
	}
	return out, true, false
}

// pivotsPerLine caps the pivots of one simplex run at this many per row
// and column of its tableau.
var pivotsPerLine = 10000

// pivot performs a simplex pivot on (leave, enter).
func pivot(rows [][]*big.Rat, rhs []*big.Rat, obj []*big.Rat, objVal *big.Rat, leave, enter int) {
	pr := rows[leave]
	pv := new(big.Rat).Set(pr[enter])
	inv := new(big.Rat).Inv(pv)
	for j := range pr {
		pr[j].Mul(pr[j], inv)
	}
	rhs[leave].Mul(rhs[leave], inv)
	for i := range rows {
		if i == leave {
			continue
		}
		f := new(big.Rat).Set(rows[i][enter])
		if f.Sign() == 0 {
			continue
		}
		for j := range rows[i] {
			t := new(big.Rat).Mul(f, pr[j])
			rows[i][j].Sub(rows[i][j], t)
		}
		t := new(big.Rat).Mul(f, rhs[leave])
		rhs[i].Sub(rhs[i], t)
	}
	f := new(big.Rat).Set(obj[enter])
	if f.Sign() != 0 {
		for j := range obj {
			t := new(big.Rat).Mul(f, pr[j])
			obj[j].Sub(obj[j], t)
		}
		t := new(big.Rat).Mul(f, rhs[leave])
		objVal.Sub(objVal, t)
	}
}
