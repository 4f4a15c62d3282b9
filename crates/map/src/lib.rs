//! Circuit mapping for neutral-atom lattices: layout, SWAP routing,
//! basis translation, and the OptiMap optimization passes.
//!
//! This crate implements the first stage of the Geyser pipeline
//! (paper Sec. 3.2) and the two non-Geyser comparison points of the
//! evaluation:
//!
//! * **Baseline** — lower the logical circuit to one- and two-qubit
//!   gates, place it on the lattice, route with SWAPs, and translate
//!   to the native `{U3, CZ}` basis. No optimization.
//! * **OptiMap** — Baseline plus the standard optimization passes a
//!   state-of-the-art compiler applies: single-qubit-run fusion,
//!   identity elimination, and commutation-aware CZ cancellation.
//!
//! The output [`MappedCircuit`] is expressed over *physical lattice
//! nodes* and carries the layout information needed to interpret
//! measurement outcomes and to verify unitary equivalence.
//!
//! # Example
//!
//! ```
//! use geyser_circuit::Circuit;
//! use geyser_map::{map_circuit, MappingOptions};
//! use geyser_topology::Lattice;
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let lat = Lattice::triangular_for(3);
//! let mapped = map_circuit(&c, &lat, &MappingOptions::optimized());
//! assert!(mapped.circuit().is_native_basis());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod error;
mod layout;
mod lower;
mod mapped;
mod passes;
mod router;
mod router_optimal;
mod schedule;

pub use basis::to_native_basis;
pub use error::MapError;
pub use layout::Layout;
pub use lower::lower_to_two_qubit;
pub use mapped::{map_circuit, try_map_circuit_traced, MappedCircuit, MappingOptions};
pub use passes::{
    cancel_cz_pairs, fuse_single_qubit_runs, optimize_to_fixpoint, remove_identities,
};
pub use router::{route, RoutedCircuit};
pub use router_optimal::optimal_swap_count;
pub use schedule::{zone_aware_depth_pulses, zone_aware_schedule, Schedule, ScheduledOp};
