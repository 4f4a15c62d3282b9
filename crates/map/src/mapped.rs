//! The end-to-end mapping pipeline and its result type.

use geyser_circuit::{Circuit, GateCounts};
use geyser_telemetry::Telemetry;
use geyser_topology::Lattice;

use crate::{
    lower_to_two_qubit, optimize_to_fixpoint, route, to_native_basis, zone_aware_depth_pulses,
    Layout, MapError,
};

/// Options controlling [`map_circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingOptions {
    /// Run the OptiMap optimization passes after basis translation.
    pub optimize: bool,
    /// Use the interaction-aware initial layout instead of the trivial
    /// one.
    pub smart_layout: bool,
}

impl MappingOptions {
    /// Baseline configuration: mapping and scheduling only, no
    /// optimization passes (paper's "Baseline" technique).
    pub fn baseline() -> Self {
        MappingOptions {
            optimize: false,
            smart_layout: false,
        }
    }

    /// OptiMap configuration: Baseline plus all optimization passes
    /// (paper's "OptiMap" technique).
    pub fn optimized() -> Self {
        MappingOptions {
            optimize: true,
            smart_layout: true,
        }
    }
}

impl Default for MappingOptions {
    fn default() -> Self {
        Self::optimized()
    }
}

/// A circuit mapped onto a physical lattice in the native basis.
///
/// Carries everything downstream stages need: the physical circuit
/// (over lattice nodes), the lattice, and the initial/final layouts
/// (SWAP routing permutes logical qubits across nodes).
#[derive(Debug, Clone)]
pub struct MappedCircuit {
    circuit: Circuit,
    lattice: Lattice,
    initial_layout: Layout,
    final_layout: Layout,
    num_logical: usize,
    swaps_inserted: usize,
}

impl MappedCircuit {
    /// Assembles a mapped circuit from its parts (used by the Geyser
    /// pipeline when substituting a composed physical circuit).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not over the lattice's node space.
    pub fn from_parts(
        circuit: Circuit,
        lattice: Lattice,
        initial_layout: Layout,
        final_layout: Layout,
        num_logical: usize,
        swaps_inserted: usize,
    ) -> Self {
        assert_eq!(
            circuit.num_qubits(),
            lattice.num_nodes(),
            "circuit must be over lattice nodes"
        );
        MappedCircuit {
            circuit,
            lattice,
            initial_layout,
            final_layout,
            num_logical,
            swaps_inserted,
        }
    }

    /// Fallible form of [`MappedCircuit::from_parts`]: returns
    /// [`MapError::NodeSpaceMismatch`] instead of panicking when the
    /// circuit is not over the lattice's node space.
    pub fn try_from_parts(
        circuit: Circuit,
        lattice: Lattice,
        initial_layout: Layout,
        final_layout: Layout,
        num_logical: usize,
        swaps_inserted: usize,
    ) -> Result<Self, MapError> {
        if circuit.num_qubits() != lattice.num_nodes() {
            return Err(MapError::NodeSpaceMismatch {
                circuit_qubits: circuit.num_qubits(),
                lattice_nodes: lattice.num_nodes(),
            });
        }
        Ok(Self::from_parts(
            circuit,
            lattice,
            initial_layout,
            final_layout,
            num_logical,
            swaps_inserted,
        ))
    }

    /// The physical circuit over lattice nodes.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The lattice the circuit is mapped onto.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Placement before the first operation.
    pub fn initial_layout(&self) -> &Layout {
        &self.initial_layout
    }

    /// Placement after the last operation.
    pub fn final_layout(&self) -> &Layout {
        &self.final_layout
    }

    /// Number of logical qubits of the original program.
    pub fn num_logical(&self) -> usize {
        self.num_logical
    }

    /// SWAPs inserted during routing.
    pub fn swaps_inserted(&self) -> usize {
        self.swaps_inserted
    }

    /// Total physical pulses (paper Fig. 12).
    pub fn total_pulses(&self) -> u64 {
        self.circuit.total_pulses()
    }

    /// Zone-aware critical-path pulses (paper Fig. 13).
    pub fn depth_pulses(&self) -> u64 {
        zone_aware_depth_pulses(&self.circuit, &self.lattice)
    }

    /// Gate counts in the paper's buckets (Fig. 14).
    pub fn gate_counts(&self) -> GateCounts {
        self.circuit.gate_counts()
    }

    /// Returns a copy with a different physical circuit (same lattice
    /// and layouts) — used by composition, which rewrites blocks
    /// in place without moving qubits.
    pub fn with_circuit(&self, circuit: Circuit) -> Self {
        Self::from_parts(
            circuit,
            self.lattice.clone(),
            self.initial_layout.clone(),
            self.final_layout.clone(),
            self.num_logical,
            self.swaps_inserted,
        )
    }

    /// Marginalizes a distribution over node basis states down to the
    /// logical register, reading each logical qubit from the node it
    /// occupies at the end of the circuit.
    ///
    /// Under noise, nodes outside the register may be excited; their
    /// state is traced out, exactly as a hardware run would discard
    /// non-register readout.
    ///
    /// # Panics
    ///
    /// Panics if `node_distribution.len() != 2^num_nodes`.
    pub fn logical_distribution(&self, node_distribution: &[f64]) -> Vec<f64> {
        let num_nodes = self.lattice.num_nodes();
        assert_eq!(
            node_distribution.len(),
            1usize << num_nodes,
            "distribution dimension mismatch"
        );
        let n = self.num_logical;
        let mut out = vec![0.0f64; 1 << n];
        // Bit position (from LSB) of node v in a node basis index.
        let node_bit = |v: usize| num_nodes - 1 - v;
        // Bit position of logical qubit q in a logical basis index.
        let logical_bit = |q: usize| n - 1 - q;
        let register: Vec<(usize, usize)> = (0..n)
            .map(|q| (logical_bit(q), node_bit(self.final_layout.node_of(q))))
            .collect();
        for (state, &p) in node_distribution.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let mut logical_state = 0usize;
            for &(lbit, nbit) in &register {
                if (state >> nbit) & 1 == 1 {
                    logical_state |= 1 << lbit;
                }
            }
            out[logical_state] += p;
        }
        out
    }
}

/// Runs the full mapping pipeline (paper Sec. 3.2):
///
/// 1. lower three-qubit gates to one-/two-qubit gates,
/// 2. choose an initial layout,
/// 3. route with SWAPs so all two-qubit gates are adjacent,
/// 4. translate to the native `{U3, CZ}` basis,
/// 5. (OptiMap only) run optimization passes to fixpoint.
///
/// # Panics
///
/// Panics if the lattice has fewer nodes than the circuit has qubits.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_map::{map_circuit, MappingOptions};
/// use geyser_topology::Lattice;
///
/// let mut c = Circuit::new(4);
/// c.h(0).cx(0, 3).cx(1, 2);
/// let lat = Lattice::triangular_for(4);
/// let baseline = map_circuit(&c, &lat, &MappingOptions::baseline());
/// let optimap = map_circuit(&c, &lat, &MappingOptions::optimized());
/// assert!(optimap.total_pulses() <= baseline.total_pulses());
/// ```
pub fn map_circuit(
    logical: &Circuit,
    lattice: &Lattice,
    options: &MappingOptions,
) -> MappedCircuit {
    try_map_circuit_traced(logical, lattice, options, &Telemetry::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`map_circuit`]: returns
/// [`MapError::LatticeTooSmall`] instead of panicking when the lattice
/// cannot host the program.
///
/// Opens a span per mapping stage (category `map`) and counts routed
/// SWAP insertions under `map.swaps_inserted`. Telemetry is
/// observational only — instrumentation never feeds back into mapping
/// decisions, so a disabled handle gives the same mapping.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_map::{try_map_circuit_traced, MapError, MappingOptions};
/// use geyser_telemetry::Telemetry;
/// use geyser_topology::Lattice;
///
/// let mut c = Circuit::new(6);
/// c.h(0).cx(0, 5);
/// let tiny = Lattice::triangular(1, 2); // 2 nodes for 6 qubits
/// let err = try_map_circuit_traced(&c, &tiny, &MappingOptions::baseline(), &Telemetry::disabled());
/// assert!(matches!(err, Err(MapError::LatticeTooSmall { .. })));
/// ```
pub fn try_map_circuit_traced(
    logical: &Circuit,
    lattice: &Lattice,
    options: &MappingOptions,
    telemetry: &Telemetry,
) -> Result<MappedCircuit, MapError> {
    if lattice.num_nodes() < logical.num_qubits() {
        return Err(MapError::LatticeTooSmall {
            qubits: logical.num_qubits(),
            nodes: lattice.num_nodes(),
        });
    }
    let lowered = {
        let _span = telemetry.span("map", "map.lower");
        lower_to_two_qubit(logical)
    };
    let layout = {
        let mut span = telemetry.span("map", "map.layout");
        span.attr("smart", options.smart_layout);
        if options.smart_layout {
            Layout::interaction_aware(&lowered, lattice)
        } else {
            Layout::trivial(lowered.num_qubits(), lattice)
        }
    };
    let routed = {
        let mut span = telemetry.span("map", "map.route");
        let routed = route(&lowered, lattice, &layout);
        span.attr("swaps", routed.swaps_inserted);
        routed
    };
    telemetry.counter_add("map.swaps_inserted", routed.swaps_inserted as u64);
    let native = {
        let _span = telemetry.span("map", "map.native_basis");
        to_native_basis(&routed.circuit)
    };
    let final_circuit = if options.optimize {
        let _span = telemetry.span("map", "map.optimize");
        optimize_to_fixpoint(&native)
    } else {
        native
    };
    Ok(MappedCircuit {
        circuit: final_circuit,
        lattice: lattice.clone(),
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        num_logical: logical.num_qubits(),
        swaps_inserted: routed.swaps_inserted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_sim::{ideal_distribution, total_variation_distance};

    fn logical_output(mapped: &MappedCircuit) -> Vec<f64> {
        mapped.logical_distribution(&ideal_distribution(mapped.circuit()))
    }

    #[test]
    fn pipeline_produces_native_basis() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2);
        let lat = Lattice::triangular_for(3);
        for opts in [MappingOptions::baseline(), MappingOptions::optimized()] {
            let m = map_circuit(&c, &lat, &opts);
            assert!(m.circuit().is_native_basis(), "{opts:?}");
        }
    }

    #[test]
    fn mapping_preserves_output_distribution() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).t(3).cx(0, 3);
        let lat = Lattice::triangular_for(4);
        let want = ideal_distribution(&c);
        for opts in [MappingOptions::baseline(), MappingOptions::optimized()] {
            let m = map_circuit(&c, &lat, &opts);
            let got = logical_output(&m);
            let tvd = total_variation_distance(&want, &got);
            assert!(tvd < 1e-9, "{opts:?}: TVD = {tvd}");
        }
    }

    #[test]
    fn optimap_never_uses_more_pulses_than_baseline() {
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 4).h(1).cx(1, 3).t(2).cx(2, 4).cx(0, 1).h(4);
        let lat = Lattice::triangular_for(5);
        let base = map_circuit(&c, &lat, &MappingOptions::baseline());
        let opti = map_circuit(&c, &lat, &MappingOptions::optimized());
        assert!(opti.total_pulses() <= base.total_pulses());
    }

    #[test]
    fn logical_distribution_reads_final_positions() {
        // Circuit with routing: X on q0, then CX(0, 3) forces SWAPs on
        // a line; the |1⟩ must still be read out from q0's final node.
        let mut c = Circuit::new(4);
        c.x(0).cx(0, 3);
        let lat = Lattice::square(1, 4);
        let m = map_circuit(&c, &lat, &MappingOptions::baseline());
        let got = logical_output(&m);
        // Expected: |1001⟩ (q0 = 1 flips q3).
        let want_state = 0b1001;
        assert!((got[want_state] - 1.0).abs() < 1e-9, "dist = {got:?}");
    }

    #[test]
    fn marginalization_sums_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2);
        let lat = Lattice::triangular(2, 2); // 4 nodes > 3 qubits
        let m = map_circuit(&c, &lat, &MappingOptions::optimized());
        let dist = logical_output(&m);
        assert_eq!(dist.len(), 8);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_circuit_swaps_payload() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let lat = Lattice::triangular_for(2);
        let m = map_circuit(&c, &lat, &MappingOptions::baseline());
        let empty = m.with_circuit(Circuit::new(lat.num_nodes()));
        assert_eq!(empty.total_pulses(), 0);
        assert_eq!(empty.num_logical(), 2);
    }

    #[test]
    fn depth_pulses_bounded_by_total() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).cx(1, 2);
        let lat = Lattice::triangular_for(4);
        let m = map_circuit(&c, &lat, &MappingOptions::optimized());
        assert!(m.depth_pulses() <= m.total_pulses());
        assert!(m.depth_pulses() > 0);
    }
}
