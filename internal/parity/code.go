package parity

import "afraid/internal/bufpool"

// Code is the array's erasure code, keyed by its number of parity units
// per stripe: 0 (no redundancy), 1 (the XOR parity P) or 2 (P plus the
// GF(2^8) syndrome Q = sum g^i d_i). It is the one entry point a stripe
// engine needs per job — encode, delta-update, solve, check — all over
// slices indexed the way the stripe is: data[i] is data unit i, par[j]
// is parity j (0 = P, 1 = Q). Every operand of a call shares one length;
// a mismatch is a bug and panics in the kernels underneath.
type Code int

// Encode writes every parity of the code from the data units.
func (c Code) Encode(par, data [][]byte) {
	switch c.parities(par) {
	case 1:
		Compute(par[0], data...)
	case 2:
		ComputePQ(par[0], par[1], data...)
	}
}

// Update applies data unit idx's read-modify-write delta to parity j:
// par ^= coef(j, idx) * (oldData ^ newData).
func (c Code) Update(j int, par, oldData, newData []byte, idx int) {
	if j == 0 {
		Update(par, oldData, newData)
		return
	}
	UpdateQ(par, oldData, newData, idx)
}

// Check reports whether every parity matches the data units.
func (c Code) Check(par, data [][]byte) bool {
	switch c.parities(par) {
	case 1:
		return Check(par[0], data...)
	case 2:
		return CheckPQ(par[0], par[1], data...)
	}
	return true
}

// parities validates that par carries one block per parity of the code.
func (c Code) parities(par [][]byte) int {
	if c < 0 || c > 2 || len(par) != int(c) {
		panic("parity: parity block count does not match the code")
	}
	return int(c)
}

// Solve recovers the missing data units in place: data[i] for each i in
// missing is overwritten with the reconstruction, every other data[i] is
// a survivor and only read. par[j] is parity j, nil when it is lost or
// not trusted. One missing unit needs either parity (P is preferred, the
// XOR path being the cheaper); two need both:
//
//	Pxy = P ^ sum(survivors)            (= dx ^ dy)
//	Qxy = Q ^ sum(g^j survivors_j)      (= g^x dx ^ g^y dy)
//	dx  = (g^(y-x) Pxy ^ g^(-x) Qxy) / (g^(y-x) ^ 1)
//	dy  = Pxy ^ dx
//
// It reports false, touching nothing, when the available parities cannot
// cover the missing set.
func (c Code) Solve(data [][]byte, missing []int, par [][]byte) bool {
	if len(missing) == 0 {
		return true
	}
	var p, q []byte
	if c >= 1 && len(par) > 0 {
		p = par[0]
	}
	if c >= 2 && len(par) > 1 {
		q = par[1]
	}
	n := len(data[missing[0]])
	for _, b := range data {
		if len(b) != n {
			panic("parity: Solve data length mismatch")
		}
	}
	if (p != nil && len(p) != n) || (q != nil && len(q) != n) {
		panic("parity: Solve parity length mismatch")
	}
	switch len(missing) {
	case 1:
		x := missing[0]
		dst := data[x]
		switch {
		case p != nil:
			// XOR ignores order: park the missing unit at the end for the
			// call, so the survivors are one slice and fold in one gather.
			last := len(data) - 1
			data[x], data[last] = data[last], data[x]
			Reconstruct(dst, p, data[:last]...)
			data[x], data[last] = data[last], data[x]
		case q != nil:
			copy(dst, q)
			for j, b := range data {
				if j != x {
					mulInto(dst, b, gfPow(j))
				}
			}
			row := &gfMulTab[gfInv(gfPow(x))]
			for i, v := range dst {
				dst[i] = row[v]
			}
		default:
			return false
		}
		return true
	case 2:
		x, y := missing[0], missing[1]
		if x == y {
			panic("parity: Solve with a repeated missing index")
		}
		if p == nil || q == nil {
			return false
		}
		pxy := bufpool.Get(n)
		qxy := bufpool.Get(n)
		defer bufpool.Put(pxy)
		defer bufpool.Put(qxy)
		copy(pxy, p)
		copy(qxy, q)
		for j, b := range data {
			if j != x && j != y {
				foldPQ(pxy, qxy, b, gfPow(j))
			}
		}
		rowA := &gfMulTab[gfPow(y-x)]
		rowB := &gfMulTab[gfPow(-x)]
		rowD := &gfMulTab[gfInv(gfPow(y-x)^1)]
		dx, dy := data[x], data[y]
		for i, pv := range pxy[:n] {
			v := rowD[rowA[pv]^rowB[qxy[i]]]
			dx[i] = v
			dy[i] = pv ^ v
		}
		return true
	}
	return false
}
