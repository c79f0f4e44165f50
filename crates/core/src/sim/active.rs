//! The flat phase's active width: the qubits the state holds in a definite
//! basis state are kept out of the flat array, and each gate is reduced
//! against them before it reaches `gate_dd` (DESIGN.md §8.2).
//!
//! The array stores the amplitudes of the *active* qubits only, in logical
//! order with the fixed bits deleted from the index, times one pending
//! scalar. A gate that leaves every fixed qubit definite never touches the
//! array's width; one that superposes a fixed qubit widens it back in.

use qcircuit::{Complex64, Control, Gate, GateKind};

/// The qubits held out of the flat array and the scalar the stored
/// amplitudes are multiplied by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct Fixed {
    /// Logical qubits in a definite basis state, one bit each.
    pub(super) mask: usize,
    /// Their values (zero outside `mask`).
    pub(super) bits: usize,
    /// Pending global factor: exactly 1 whenever `mask` is 0.
    pub(super) factor: Complex64,
}

/// What a gate does to a state some of whose qubits are fixed.
#[derive(Clone, Debug, PartialEq)]
pub(super) enum Reduced {
    /// A fixed control is not satisfied: the gate is the identity.
    Skip,
    /// The state is multiplied by `c`; the fixed qubits in `flip` change
    /// value (an uncontrolled X or Y on a fixed target).
    Factor(Complex64, usize),
    /// The gate on the active qubits alone, relabelled to their positions
    /// in the array.
    Gate(Gate),
    /// The gate superposes fixed qubit `q`: widen it in first.
    Widen(usize),
}

impl Fixed {
    /// Nothing fixed: the array is the state.
    pub(super) const NONE: Fixed = Fixed {
        mask: 0,
        bits: 0,
        factor: Complex64::ONE,
    };

    /// Whether logical qubit `q` is fixed.
    pub(super) fn holds(&self, q: usize) -> bool {
        self.mask >> q & 1 == 1
    }

    /// The value of fixed qubit `q` (0 or 1).
    pub(super) fn bit(&self, q: usize) -> usize {
        self.bits >> q & 1
    }

    /// Position of logical qubit `q` in the array index: `q` minus the
    /// fixed qubits below it (deleting fixed bits keeps the index order).
    pub(super) fn position(&self, q: usize) -> usize {
        q - (self.mask & ((1usize << q) - 1)).count_ones() as usize
    }

    /// Index into the array of basis state `index` (over all qubits): its
    /// bits on the active qubits, in order; `None` where a fixed qubit
    /// reads the other value, whose amplitude is zero.
    pub(super) fn array_index(&self, index: usize) -> Option<usize> {
        if index & self.mask != self.bits {
            return None;
        }
        let top = (usize::BITS - index.leading_zeros()) as usize;
        let (mut at, mut j) = (0, 0);
        for q in (0..top).filter(|&q| !self.holds(q)) {
            at |= (index >> q & 1) << j;
            j += 1;
        }
        Some(at)
    }

    /// The basis state (over all qubits) of array index `at`: the inverse
    /// of [`Self::array_index`]. Both keep index order.
    pub(super) fn full_index(&self, at: usize) -> usize {
        let (mut index, mut rest, mut free) = (self.bits, at, !self.mask);
        while rest != 0 {
            index |= (rest & 1) << free.trailing_zeros();
            (rest, free) = (rest >> 1, free & (free - 1));
        }
        index
    }

    /// The coefficients that put the state on fixed qubit `q`'s value,
    /// times `f`: what a widening that only spreads writes.
    pub(super) fn spread(&self, q: usize, f: Complex64) -> [Complex64; 2] {
        match self.bit(q) {
            0 => [f, Complex64::ZERO],
            _ => [Complex64::ZERO, f],
        }
    }

    /// Applies a [`Reduced::Factor`].
    pub(super) fn absorb(&mut self, c: Complex64, flip: usize) {
        self.bits ^= flip;
        self.factor *= c;
    }

    /// Takes `q` out of the fixed set and clears the pending factor: the
    /// widening that releases a qubit applies the factor on the way.
    pub(super) fn release(&mut self, q: usize) {
        self.mask &= !(1usize << q);
        self.bits &= !(1usize << q);
        self.factor = Complex64::ONE;
    }

    /// `gate` against the fixed set. Fixed controls are dropped when
    /// satisfied and skip the gate when not. A fixed target whose 2x2 maps
    /// `|b>` to a multiple of `|b>` leaves a phase: a factor with no active
    /// control left, else a phase gate on the active controls. An X- or
    /// Y-like 2x2 on a fixed target with no active control flips it. A gate
    /// on active qubits only is relabelled. Anything else widens its target.
    pub(super) fn reduce(&self, gate: &Gate) -> Reduced {
        let mut active: Vec<Control> = Vec::with_capacity(gate.controls.len());
        for c in &gate.controls {
            if !self.holds(c.qubit) {
                active.push(*c);
            } else if (self.bit(c.qubit) == 1) != c.positive {
                return Reduced::Skip;
            }
        }
        let t = gate.target;
        if !self.holds(t) {
            return Reduced::Gate(self.relabel(gate.kind, t, &active));
        }
        let b = self.bit(t);
        let m = gate.kind.matrix();
        // Column b of the 2x2: |b> -> stay |b> + go |1-b>.
        let (stay, go) = (m[3 * b], m[2 - b]);
        if go.is_zero() {
            if stay == Complex64::ONE {
                return Reduced::Skip;
            }
            return match active.split_last() {
                None => Reduced::Factor(stay, 0),
                Some((last, rest)) => {
                    let (o, z) = (Complex64::ONE, Complex64::ZERO);
                    let phase = match last.positive {
                        true => [o, z, z, stay],
                        false => [stay, z, z, o],
                    };
                    Reduced::Gate(self.relabel(GateKind::Unitary(phase), last.qubit, rest))
                }
            };
        }
        if stay.is_zero() && active.is_empty() {
            return Reduced::Factor(go, 1usize << t);
        }
        Reduced::Widen(t)
    }

    /// The gate `kind` on logical `target` under logical `controls`, at
    /// array positions.
    fn relabel(&self, kind: GateKind, target: usize, controls: &[Control]) -> Gate {
        Gate {
            kind,
            target: self.position(target),
            controls: controls
                .iter()
                .map(|c| Control {
                    qubit: self.position(c.qubit),
                    positive: c.positive,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(mask: usize, bits: usize) -> Fixed {
        Fixed {
            mask,
            bits,
            factor: Complex64::ONE,
        }
    }

    #[test]
    fn every_rule_of_the_reduction_table() {
        use GateKind::*;
        // Qubits 1 (at 0) and 3 (at 1) fixed; 0, 2 and 4 active at
        // positions 0, 1 and 2.
        let f = fixed(0b01010, 0b01000);
        let cx = |c: Control, t| Gate::controlled(X, t, vec![c]);
        assert_eq!(f.position(4), 2);
        // Controls: dropped when satisfied, skip when not.
        assert_eq!(f.reduce(&cx(Control::pos(1), 0)), Reduced::Skip);
        assert_eq!(f.reduce(&cx(Control::neg(3), 0)), Reduced::Skip);
        assert_eq!(
            f.reduce(&cx(Control::pos(3), 4)),
            Reduced::Gate(Gate::new(X, 2))
        );
        assert_eq!(
            f.reduce(&Gate::controlled(
                H,
                2,
                vec![Control::neg(1), Control::pos(4)]
            )),
            Reduced::Gate(Gate::controlled(H, 1, vec![Control::pos(2)]))
        );
        // Phases on a fixed target.
        assert_eq!(f.reduce(&Gate::new(Z, 1)), Reduced::Skip);
        assert_eq!(
            f.reduce(&Gate::new(Z, 3)),
            Reduced::Factor(Complex64::real(-1.0), 0)
        );
        assert_eq!(
            f.reduce(&Gate::new(S, 3)),
            Reduced::Factor(Complex64::new(0.0, 1.0), 0)
        );
        let rz = RZ(0.7).matrix();
        assert_eq!(f.reduce(&Gate::new(RZ(0.7), 1)), Reduced::Factor(rz[0], 0));
        let (o, z, m) = (Complex64::ONE, Complex64::ZERO, Complex64::real(-1.0));
        assert_eq!(
            f.reduce(&Gate::controlled(Z, 3, vec![Control::pos(4)])),
            Reduced::Gate(Gate::new(Unitary([o, z, z, m]), 2))
        );
        let t = T.matrix()[3];
        assert_eq!(
            f.reduce(&Gate::controlled(
                T,
                3,
                vec![Control::pos(0), Control::neg(4)]
            )),
            Reduced::Gate(Gate::controlled(
                Unitary([t, z, z, o]),
                2,
                vec![Control::pos(0)]
            ))
        );
        // Flips.
        assert_eq!(f.reduce(&Gate::new(X, 1)), Reduced::Factor(o, 0b10));
        assert_eq!(
            f.reduce(&Gate::new(Y, 3)),
            Reduced::Factor(Complex64::new(0.0, -1.0), 0b1000)
        );
        assert_eq!(f.reduce(&cx(Control::pos(3), 1)), Reduced::Factor(o, 0b10));
        // Widenings.
        assert_eq!(f.reduce(&cx(Control::pos(0), 1)), Reduced::Widen(1));
        for kind in [H, SqrtX, SqrtY, RY(0.3)] {
            assert_eq!(f.reduce(&Gate::new(kind, 3)), Reduced::Widen(3));
        }
    }

    #[test]
    fn the_index_maps_are_inverse_and_keep_order() {
        let f = fixed(0b101001, 0b100001);
        let full: Vec<usize> = (0..8).map(|at| f.full_index(at)).collect();
        assert_eq!(full, [33, 35, 37, 39, 49, 51, 53, 55]);
        for (at, &index) in full.iter().enumerate() {
            assert_eq!(f.array_index(index), Some(at));
        }
        assert_eq!(f.array_index(0b000010), None);
        assert_eq!(Fixed::NONE.full_index(13), 13);
    }

    #[test]
    fn flips_and_factors_compose() {
        let mut f = fixed(0b1, 0);
        f.absorb(Complex64::new(0.0, 1.0), 0b1);
        f.absorb(Complex64::new(0.0, 1.0), 0);
        assert_eq!((f.bits, f.factor), (1, Complex64::real(-1.0)));
        f.release(0);
        assert_eq!(f, Fixed::NONE);
    }
}
