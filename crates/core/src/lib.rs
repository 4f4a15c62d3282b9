//! Geyser: a compilation framework for quantum computing with neutral
//! atoms — Rust reproduction of the ISCA 2022 paper by Patel, Silver,
//! and Tiwari.
//!
//! Geyser compiles quantum circuits for neutral-atom hardware in three
//! steps (paper Fig. 6):
//!
//! 1. **Mapping** — place the logical circuit on a triangular atom
//!    lattice, route with SWAPs, translate to the native
//!    `{U3, CZ, CCZ}` basis ([`geyser_map`]).
//! 2. **Blocking** — partition the mapped circuit into three-qubit
//!    triangle blocks grouped into parallel rounds
//!    ([`geyser_blocking`]).
//! 3. **Composition** — re-synthesize each block with layers of U3 +
//!    CZ/CCZ gates found by dual annealing, cutting physical pulse
//!    counts ([`geyser_compose`]).
//!
//! This crate exposes the end-to-end pipeline as the paper's four
//! comparison points ([`Technique`]) and the evaluation drivers that
//! regenerate every table and figure (see `geyser-bench`).
//!
//! # Quickstart
//!
//! ```
//! use geyser::{compile, PipelineConfig, Technique};
//! use geyser_circuit::Circuit;
//!
//! let mut program = Circuit::new(3);
//! program.h(0).cx(0, 1).cx(1, 2);
//!
//! let cfg = PipelineConfig::fast(); // reduced budgets for docs/tests
//! let baseline = compile(&program, Technique::Baseline, &cfg);
//! let geyser = compile(&program, Technique::Geyser, &cfg);
//! assert!(geyser.total_pulses() <= baseline.total_pulses());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod compiled;
mod config;
mod error;
mod evaluate;
mod fault;
mod pass;
pub mod passes;
mod report;
mod technique;
mod verify;

pub use budget::Budget;
pub use compiled::CompiledCircuit;
pub use config::PipelineConfig;
pub use error::CompileError;
pub use evaluate::{
    estimated_success_probability, evaluate_tvd, ideal_logical_distribution, try_evaluate_tvd,
    try_evaluate_tvd_traced, TvdReport,
};
pub use fault::{FaultInjector, FaultSpecError};
pub use geyser_store::{
    decode_record, encode_record, read_record_file, read_record_file_quarantining,
    write_record_atomic, RecordError, RecordPayload, StoreCorruption, StoreReadError,
};
pub use pass::{CompileContext, Pass, PassManager};
pub use report::{CompileReport, PassReport, VerificationStats};
// The record layer moved to its own crate so non-core consumers (the
// reuse index, future stores) can share it without depending on the
// whole pipeline; `geyser::store::*` paths keep working via this
// re-export.
pub use geyser_store as store;
pub use technique::{compile, try_compile, Technique};
pub use verify::verify_compiled;

// Re-export the component crates so downstream users need only one
// dependency.
pub use geyser_hardware::{HardwareSpec, HardwareSpecError, LatticeSpec};
pub use geyser_optimize::{CancelToken, Deadline};
pub use geyser_telemetry::{MetricsSnapshot, Telemetry};

pub use geyser_blocking as blocking;
pub use geyser_circuit as circuit;
pub use geyser_compose as compose;
pub use geyser_hardware as hardware;
pub use geyser_map as map;
pub use geyser_num as num;
pub use geyser_optimize as optimize;
pub use geyser_sim as sim;
pub use geyser_synth as synth;
pub use geyser_topology as topology;
pub use geyser_verify as verifier;
pub use geyser_workloads as workloads;
