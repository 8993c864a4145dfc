package core

// Encoding selects how the translator locates qubits inside the integer
// state index.
type Encoding int

const (
	// EncodingBitwise uses the paper's bitwise operators (Table 1):
	// masks, shifts, AND/OR/NOT. This is the Qymera contribution.
	EncodingBitwise Encoding = iota
	// EncodingArithmetic expresses the same index manipulation with
	// division, modulo, multiplication, and addition only. It exists as
	// the ablation baseline for the claim that CPU-native bitwise
	// instructions beat arithmetic index math (DESIGN.md §4).
	EncodingArithmetic
)

func (e Encoding) String() string {
	if e == EncodingArithmetic {
		return "arithmetic"
	}
	return "bitwise"
}

// contiguousAscending reports whether qubits form q0, q0+1, ..., q0+k-1.
func contiguousAscending(qubits []int) bool {
	for i := 1; i < len(qubits); i++ {
		if qubits[i] != qubits[0]+i {
			return false
		}
	}
	return true
}

// placeMask returns the OR of 1<<q for each target qubit.
func placeMask(qubits []int) uint64 {
	var m uint64
	for _, q := range qubits {
		m |= uint64(1) << uint(q)
	}
	return m
}

// inputIndexExpr renders the SQL expression extracting the gate-local
// input index from column ref (e.g. "T0.s") for a gate on the given
// qubits. For the paper's contiguous cases it produces exactly the forms
// of Fig. 2c:
//
//	qubit 0 tuple (0):      (T0.s & 1)
//	qubit tuple (0,1):      (T1.s & 3)
//	qubit tuple (1,2):      ((T2.s >> 1) & 3)
func inputIndexExpr(ref string, qubits []int, enc Encoding) string {
	if enc == EncodingArithmetic {
		return arithGather(ref, qubits)
	}
	var w sqlWriter
	w.Grow(len(qubits) * (len(ref) + 24))
	if contiguousAscending(qubits) {
		mask := (uint64(1) << uint(len(qubits))) - 1
		if qubits[0] == 0 {
			w.WriteByte('(')
			w.WriteString(ref)
		} else {
			w.WriteString("((")
			w.WriteString(ref)
			w.WriteString(" >> ")
			w.writeInt(qubits[0])
			w.WriteByte(')')
		}
		w.WriteString(" & ")
		w.writeUint(mask)
		w.WriteByte(')')
		return w.String()
	}
	// General gather: local bit j comes from global qubit qubits[j].
	w.WriteByte('(')
	for j, q := range qubits {
		if j > 0 {
			w.WriteString(" | (")
		}
		w.writeBit(ref, q)
		if j > 0 {
			w.WriteString(" << ")
			w.writeInt(j)
			w.WriteByte(')')
		}
	}
	w.WriteByte(')')
	return w.String()
}

// writeBit writes the bitwise extraction of bit q of ref: (ref & 1) for
// bit 0, ((ref >> q) & 1) otherwise.
func (w *sqlWriter) writeBit(ref string, q int) {
	if q == 0 {
		w.WriteByte('(')
		w.WriteString(ref)
	} else {
		w.WriteString("((")
		w.WriteString(ref)
		w.WriteString(" >> ")
		w.writeInt(q)
		w.WriteByte(')')
	}
	w.WriteString(" & 1)")
}

// outputIndexExpr renders the SQL expression computing the successor
// state index: the old index with the gate's qubits replaced by the gate
// table's out_s. stateRef is e.g. "T0.s", gateRef e.g. "H.out_s". The
// contiguous forms match Fig. 2c:
//
//	tuple (0):   ((T0.s & ~1) | H.out_s)
//	tuple (0,1): ((T1.s & ~3) | CX.out_s)
//	tuple (1,2): ((T2.s & ~6) | (CX.out_s << 1))
func outputIndexExpr(stateRef, gateRef string, qubits []int, enc Encoding) string {
	if enc == EncodingArithmetic {
		return arithScatter(stateRef, gateRef, qubits)
	}
	var w sqlWriter
	w.Grow(len(stateRef) + len(qubits)*(len(gateRef)+28) + 32)
	w.WriteString("((")
	w.WriteString(stateRef)
	w.WriteString(" & ~")
	w.writeUint(placeMask(qubits))
	w.WriteString(") | ")
	switch {
	case contiguousAscending(qubits) && qubits[0] == 0:
		w.WriteString(gateRef)
	case contiguousAscending(qubits):
		w.WriteByte('(')
		w.WriteString(gateRef)
		w.WriteString(" << ")
		w.writeInt(qubits[0])
		w.WriteByte(')')
	default:
		w.WriteByte('(')
		for j, q := range qubits {
			if j > 0 {
				w.WriteString(" | ")
			}
			if q != 0 {
				w.WriteByte('(')
			}
			w.writeBit(gateRef, j)
			if q != 0 {
				w.WriteString(" << ")
				w.writeInt(q)
				w.WriteByte(')')
			}
		}
		w.WriteByte(')')
	}
	w.WriteByte(')')
	return w.String()
}

// arithGather is the arithmetic-only equivalent of inputIndexExpr:
// bit j of the local index is ((s / 2^q) % 2) * 2^j.
func arithGather(ref string, qubits []int) string {
	var w sqlWriter
	w.Grow(len(qubits) * (len(ref) + 40))
	if contiguousAscending(qubits) {
		div := uint64(1) << uint(qubits[0])
		mod := uint64(1) << uint(len(qubits))
		if div == 1 {
			w.WriteByte('(')
			w.WriteString(ref)
		} else {
			w.WriteString("((")
			w.WriteString(ref)
			w.WriteString(" / ")
			w.writeUint(div)
			w.WriteByte(')')
		}
		w.WriteString(" % ")
		w.writeUint(mod)
		w.WriteByte(')')
		return w.String()
	}
	w.WriteByte('(')
	for j, q := range qubits {
		if j > 0 {
			w.WriteString(" + (")
		}
		w.writeArithBit(ref, uint64(1)<<uint(q))
		if j > 0 {
			w.WriteString(" * ")
			w.writeUint(uint64(1) << uint(j))
			w.WriteByte(')')
		}
	}
	w.WriteByte(')')
	return w.String()
}

// arithScatter is the arithmetic-only equivalent of outputIndexExpr:
// subtract each of the gate's bits from the state, then add the scattered
// out_s bits.
func arithScatter(stateRef, gateRef string, qubits []int) string {
	var w sqlWriter
	w.Grow(len(stateRef) + len(qubits)*(len(stateRef)+len(gateRef)+80) + 16)
	// cleared = s - Σ_q ((s / 2^q) % 2) * 2^q
	w.WriteString("((")
	w.WriteString(stateRef)
	for _, q := range qubits {
		div := uint64(1) << uint(q)
		w.WriteString(" - (")
		w.writeArithBit(stateRef, div)
		w.WriteString(" * ")
		w.writeUint(div)
		w.WriteByte(')')
	}
	w.WriteString(") + ")
	for j, q := range qubits {
		if j > 0 {
			w.WriteString(" + ")
		}
		w.WriteByte('(')
		w.writeArithBit(gateRef, uint64(1)<<uint(j))
		w.WriteString(" * ")
		w.writeUint(uint64(1) << uint(q))
		w.WriteByte(')')
	}
	w.WriteByte(')')
	return w.String()
}

// writeArithBit writes the arithmetic extraction of the bit of ref worth
// div: (ref % 2) for the lowest bit, ((ref / div) % 2) otherwise.
func (w *sqlWriter) writeArithBit(ref string, div uint64) {
	if div == 1 {
		w.WriteByte('(')
		w.WriteString(ref)
	} else {
		w.WriteString("((")
		w.WriteString(ref)
		w.WriteString(" / ")
		w.writeUint(div)
		w.WriteByte(')')
	}
	w.WriteString(" % 2)")
}
