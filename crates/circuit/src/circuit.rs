//! The circuit container and its accounting methods.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{critical_path_pulses, Gate, Operation};

/// Gate-count summary of a circuit, bucketed the way the paper reports
/// them (Fig. 14): single-qubit (U3-class), CZ, CCZ, and anything not
/// yet translated to the native basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GateCounts {
    /// Single-qubit gates (every 1q gate is one U3 pulse).
    pub u3: usize,
    /// Native two-qubit CZ gates.
    pub cz: usize,
    /// Native three-qubit CCZ gates.
    pub ccz: usize,
    /// Logical multi-qubit gates not yet mapped (CX, SWAP, CP, CCX).
    pub unmapped: usize,
}

impl GateCounts {
    /// Total number of gates counted.
    pub fn total(&self) -> usize {
        self.u3 + self.cz + self.ccz + self.unmapped
    }
}

/// An ordered sequence of quantum operations on `n` qubits.
///
/// `Circuit` is the IR exchanged between every pipeline stage. It
/// supports fluent construction, pulse-aware cost accounting, and
/// structural queries used by blocking and composition.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.len(), 2);
/// assert_eq!(bell.total_pulses(), 1 + 5);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits the circuit is declared over.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Borrows the operation list in program order.
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if any target qubit index is out of range.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        for &q in op.qubits() {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for {}-qubit circuit",
                self.num_qubits
            );
        }
        self.ops.push(op);
        self
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, duplicate qubits, or out-of-range
    /// indices.
    pub fn apply(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.push(Operation::new(gate, qubits.to_vec()))
    }

    /// Appends all operations of `other` (same qubit space).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses qubits out of range for this circuit.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        for op in other.iter() {
            self.push(op.clone());
        }
        self
    }

    // ---- fluent single-qubit builders ----

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, &[q])
    }
    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, &[q])
    }
    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, &[q])
    }
    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, &[q])
    }
    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::S, &[q])
    }
    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sdg, &[q])
    }
    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, &[q])
    }
    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Tdg, &[q])
    }
    /// Appends an X-rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::RX(theta), &[q])
    }
    /// Appends a Y-rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::RY(theta), &[q])
    }
    /// Appends a Z-rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::RZ(theta), &[q])
    }
    /// Appends a phase gate diag(1, e^{iθ}).
    pub fn p(&mut self, theta: f64, q: usize) -> &mut Self {
        self.apply(Gate::Phase(theta), &[q])
    }
    /// Appends a general U3 rotation.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.apply(Gate::U3 { theta, phi, lambda }, &[q])
    }

    // ---- fluent multi-qubit builders ----

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::CZ, &[a, b])
    }
    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.apply(Gate::CX, &[c, t])
    }
    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::CPhase(theta), &[a, b])
    }
    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Swap, &[a, b])
    }
    /// Appends a CCZ gate.
    pub fn ccz(&mut self, a: usize, b: usize, c: usize) -> &mut Self {
        self.apply(Gate::CCZ, &[a, b, c])
    }
    /// Appends a Toffoli gate with controls `c1`, `c2` and target `t`.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.apply(Gate::CCX, &[c1, c2, t])
    }

    // ---- accounting ----

    /// Gate counts bucketed as the paper reports them (Fig. 14).
    pub fn gate_counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for op in &self.ops {
            match op.gate() {
                g if g.is_single_qubit() => counts.u3 += 1,
                Gate::CZ => counts.cz += 1,
                Gate::CCZ => counts.ccz += 1,
                _ => counts.unmapped += 1,
            }
        }
        counts
    }

    /// Total physical pulses across all operations (paper Fig. 12).
    pub fn total_pulses(&self) -> u64 {
        self.ops.iter().map(|op| op.pulses() as u64).sum()
    }

    /// Pulses on the critical path ignoring restriction zones
    /// (paper Fig. 13 reports the zone-aware variant; see
    /// `geyser-map`'s scheduler for that).
    pub fn depth_pulses(&self) -> u64 {
        critical_path_pulses(self)
    }

    /// Returns `true` if every operation is in the native neutral-atom
    /// basis `{U3, CZ, CCZ}`.
    pub fn is_native_basis(&self) -> bool {
        self.ops.iter().all(|op| op.gate().is_native())
    }

    /// The set of qubits actually touched by at least one operation,
    /// in ascending order.
    pub fn used_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for op in &self.ops {
            for &q in op.qubits() {
                used[q] = true;
            }
        }
        (0..self.num_qubits).filter(|&q| used[q]).collect()
    }

    /// Returns a copy with all qubit indices rewritten through `f`,
    /// declared over `new_num_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if a remapped index falls outside the new range or the
    /// remapping collides qubits within one operation.
    pub fn remapped<F: FnMut(usize) -> usize>(&self, new_num_qubits: usize, mut f: F) -> Circuit {
        let mut out = Circuit::new(new_num_qubits);
        for op in &self.ops {
            out.push(op.remapped(&mut f));
        }
        out
    }

    /// Unweighted gate depth: the number of ASAP layers (every gate
    /// counted as one time step regardless of pulse cost). Compare
    /// with [`Circuit::depth_pulses`] for the pulse-weighted metric.
    ///
    /// # Example
    ///
    /// ```
    /// use geyser_circuit::Circuit;
    /// let mut c = Circuit::new(3);
    /// c.h(0).h(1).cz(0, 1).h(2);
    /// assert_eq!(c.gate_depth(), 2);
    /// ```
    pub fn gate_depth(&self) -> usize {
        crate::asap_layers(self).len()
    }

    /// The inverse circuit `C⁻¹`: operations reversed, each gate
    /// inverted. Running `C` then `C.inverted()` is the identity —
    /// the basis of mirror/Loschmidt-echo benchmarking.
    ///
    /// # Example
    ///
    /// ```
    /// use geyser_circuit::Circuit;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1).t(1);
    /// let mirror = c.inverted();
    /// assert_eq!(mirror.len(), 3);
    /// assert_eq!(mirror.ops()[0].gate().name(), "tdg");
    /// ```
    pub fn inverted(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for op in self.ops.iter().rev() {
            out.push(Operation::new(op.gate().inverse(), op.qubits().to_vec()));
        }
        out
    }

    /// Splits the circuit into per-qubit operation index lists: entry
    /// `q` holds the indices (into [`Circuit::ops`]) of operations
    /// touching qubit `q`, in program order. This is the "operations
    /// of qubits" view used by the blocking frontier (Algorithm 1).
    pub fn per_qubit_op_indices(&self) -> Vec<Vec<usize>> {
        let mut per = vec![Vec::new(); self.num_qubits];
        for (i, op) in self.ops.iter().enumerate() {
            for &q in op.qubits() {
                per[q].push(i);
            }
        }
        per
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit({} qubits, {} ops)", self.num_qubits, self.len())?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl Extend<Operation> for Circuit {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_ops() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccz(0, 1, 2).rz(0.5, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_qubits(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn gate_counts_bucketing() {
        let mut c = Circuit::new(3);
        c.h(0).x(1).cz(0, 1).ccz(0, 1, 2).cx(1, 2).swap(0, 1);
        let counts = c.gate_counts();
        assert_eq!(counts.u3, 2);
        assert_eq!(counts.cz, 1);
        assert_eq!(counts.ccz, 1);
        assert_eq!(counts.unmapped, 2);
        assert_eq!(counts.total(), 6);
    }

    #[test]
    fn total_pulses_sums_gate_pulses() {
        let mut c = Circuit::new(3);
        c.u3(0.1, 0.2, 0.3, 0).cz(0, 1).ccz(0, 1, 2);
        assert_eq!(c.total_pulses(), 1 + 3 + 5);
    }

    #[test]
    fn native_basis_detection() {
        let mut native = Circuit::new(2);
        native.u3(0.1, 0.2, 0.3, 0).cz(0, 1);
        assert!(native.is_native_basis());
        let mut logical = Circuit::new(2);
        logical.h(0).cx(0, 1);
        assert!(!logical.is_native_basis());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn used_qubits_skips_idle() {
        let mut c = Circuit::new(5);
        c.h(1).cz(1, 3);
        assert_eq!(c.used_qubits(), vec![1, 3]);
    }

    #[test]
    fn remap_shifts_indices() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let shifted = c.remapped(4, |q| q + 2);
        assert_eq!(shifted.num_qubits(), 4);
        assert_eq!(shifted.ops()[1].qubits(), &[2, 3]);
    }

    #[test]
    fn per_qubit_indices_in_program_order() {
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1).h(1).cz(1, 2);
        let per = c.per_qubit_op_indices();
        assert_eq!(per[0], vec![0, 1]);
        assert_eq!(per[1], vec![1, 2, 3]);
        assert_eq!(per[2], vec![3]);
    }

    #[test]
    fn extend_from_appends() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cz(0, 1);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iterators_visit_program_order() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let names: Vec<&str> = c.iter().map(|op| op.gate().name()).collect();
        assert_eq!(names, vec!["h", "cz"]);
        let names2: Vec<&str> = (&c).into_iter().map(|op| op.gate().name()).collect();
        assert_eq!(names2, names);
    }

    #[test]
    fn gate_depth_counts_asap_layers() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3); // one layer
        c.cz(0, 1).cz(2, 3); // one layer
        assert_eq!(c.gate_depth(), 2);
        assert_eq!(Circuit::new(2).gate_depth(), 0);
    }

    #[test]
    fn core_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Circuit>();
        assert_send_sync::<crate::Gate>();
        assert_send_sync::<crate::Operation>();
        assert_send_sync::<GateCounts>();
    }

    #[test]
    fn inverted_reverses_and_inverts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.4, 1).ccz(0, 1, 2).s(2);
        let inv = c.inverted();
        assert_eq!(inv.len(), c.len());
        let names: Vec<&str> = inv.iter().map(|op| op.gate().name()).collect();
        assert_eq!(names, vec!["sdg", "ccz", "rz", "cx", "h"]);
        // The rz angle must be negated.
        assert_eq!(*inv.ops()[2].gate(), crate::Gate::RZ(-0.4));
    }

    #[test]
    fn empty_circuit_accounting() {
        let c = Circuit::new(4);
        assert_eq!(c.total_pulses(), 0);
        assert_eq!(c.depth_pulses(), 0);
        assert_eq!(c.gate_counts().total(), 0);
        assert!(c.is_native_basis());
        assert!(c.used_qubits().is_empty());
    }
}
