//! One serializable value for an entire neutral-atom hardware
//! scenario.
//!
//! The paper's results are parameterized by a hardware model — lattice
//! family, atom spacing, Rydberg interaction radius, how many blocks
//! may pulse simultaneously, and per-pulse noise rates — but those
//! assumptions naturally scatter across crates (`geyser-topology`
//! owns geometry, `geyser-sim` owns noise, the pass pipeline picks
//! lattice kinds). [`HardwareSpec`] gathers them into a single
//! serde-serializable value with a stable content digest, so a
//! scenario is one JSON file: pipelines consume it through
//! `PipelineConfig`, and the stores key on
//! [`HardwareSpec::digest`] so results compiled under one hardware
//! model can never be replayed under another.

use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::Path;

use geyser_sim::NoiseModel;
use geyser_topology::{Lattice, LatticeKind};
use serde::{Deserialize, Serialize};

/// Lattice geometry of a scenario: family, dimensions, and the two
/// lengths that induce the adjacency graph (and with it the
/// restriction-zone layout of every multi-qubit gate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeSpec {
    /// Geometric family (triangular, square, diagonal square).
    pub kind: LatticeKind,
    /// Fixed row count, or `0` to size the grid for each program
    /// (the near-square policy of [`Lattice::grid_dims`]).
    pub rows: usize,
    /// Fixed column count, or `0` to size per program.
    pub cols: usize,
    /// Distance between grid-adjacent atoms (arbitrary length unit;
    /// the paper's technological parameters fix it at a few μm).
    pub spacing: f64,
    /// Interaction radius as a multiple of `spacing`. The paper uses
    /// `1.01` for every family; [`LatticeKind::SquareDiagonal`]
    /// additionally scales by `√2` so the radius reaches diagonal
    /// neighbours (paper Fig. 7b).
    pub radius_factor: f64,
}

impl LatticeSpec {
    /// The absolute interaction radius this spec induces for `kind`
    /// (the diagonal square family carries the extra `√2`).
    pub fn radius_for(&self, kind: LatticeKind) -> f64 {
        let base = self.spacing * self.radius_factor;
        match kind {
            LatticeKind::Triangular | LatticeKind::Square => base,
            LatticeKind::SquareDiagonal => std::f64::consts::SQRT_2 * base,
        }
    }
}

/// A complete neutral-atom hardware scenario.
///
/// [`HardwareSpec::paper`] reproduces the repository's historical
/// behavior bit-identically; every other value is a counterfactual
/// machine for sweeps and ablations. The [`digest`](Self::digest)
/// folds every behavioral field into one `u64`, which cache and reuse
/// keys embed so cross-scenario replay is impossible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Human-readable scenario label (file stems, scorecard rows).
    /// Not part of the digest: renaming a scenario does not invalidate
    /// results computed under it.
    pub name: String,
    /// Lattice geometry (also fixes restriction-zone layout).
    pub lattice: LatticeSpec,
    /// Maximum number of blocks the machine can pulse simultaneously
    /// in one blocking round (`0` = unlimited, the paper's
    /// assumption).
    pub max_parallel_blocks: usize,
    /// Per-pulse stochastic noise model.
    pub noise: NoiseModel,
    /// Probability an atom escapes the trap per shot (fed to the
    /// atom-loss simulation paths).
    pub atom_loss: f64,
}

impl HardwareSpec {
    /// The paper's machine: triangular lattice sized per program at
    /// unit spacing, radius `1.01·spacing`, unlimited parallel
    /// blocks, 0.1% symmetric per-pulse noise, no atom loss.
    /// Compiling under this spec is bit-identical to the
    /// pre-`HardwareSpec` pipeline.
    pub fn paper() -> Self {
        HardwareSpec {
            name: "paper".to_string(),
            lattice: LatticeSpec {
                kind: LatticeKind::Triangular,
                rows: 0,
                cols: 0,
                spacing: 1.0,
                radius_factor: 1.01,
            },
            max_parallel_blocks: 0,
            noise: NoiseModel::default(),
            atom_loss: 0.0,
        }
    }

    /// The diagonal-square ablation machine (paper Fig. 7b): same
    /// spacing and noise as [`paper`](Self::paper) but the interaction
    /// radius reaches diagonal neighbours.
    pub fn square_diagonal() -> Self {
        HardwareSpec {
            name: "square-diagonal".to_string(),
            lattice: LatticeSpec {
                kind: LatticeKind::SquareDiagonal,
                ..Self::paper().lattice
            },
            ..Self::paper()
        }
    }

    /// A pessimistic near-term machine: 0.5% per-pulse noise, a cap of
    /// four simultaneously-pulsed blocks, and 0.2% atom loss per shot.
    pub fn near_term() -> Self {
        HardwareSpec {
            name: "near-term".to_string(),
            max_parallel_blocks: 4,
            noise: NoiseModel::symmetric(0.005),
            atom_loss: 0.002,
            ..Self::paper()
        }
    }

    /// Returns a copy with a different scenario label (digest
    /// unchanged).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Stable content digest of every behavioral field (FNV-1a over a
    /// canonical rendering; the label is excluded). Two specs that
    /// compile circuits identically digest identically, and any change
    /// to geometry, pulse limits, or noise changes the digest —
    /// this is the value the cache and reuse store bind to.
    pub fn digest(&self) -> u64 {
        let canonical = format!(
            "kind={:?}|rows={}|cols={}|spacing={:?}|radius_factor={:?}|max_parallel_blocks={}|bit_flip={:?}|phase_flip={:?}|granularity={:?}|atom_loss={:?}",
            self.lattice.kind,
            self.lattice.rows,
            self.lattice.cols,
            self.lattice.spacing,
            self.lattice.radius_factor,
            self.max_parallel_blocks,
            self.noise.bit_flip,
            self.noise.phase_flip,
            self.noise.granularity,
            self.atom_loss,
        );
        geyser_store::fnv1a_bytes(canonical.as_bytes())
    }

    /// `true` when this spec digests identically to
    /// [`HardwareSpec::paper`] (legacy on-disk artifacts without a
    /// digest were implicitly compiled under the paper machine).
    pub fn is_paper(&self) -> bool {
        self.digest() == Self::paper().digest()
    }

    /// Builds the lattice this scenario provides for a program of
    /// `num_qubits` qubits. `kind_override` substitutes the lattice
    /// family while keeping the spec's dimensions, spacing, and radius
    /// factor — the superconducting-comparison technique uses it to
    /// request a square grid on otherwise identical hardware.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive, or if `num_qubits == 0`
    /// with auto-sizing in force.
    pub fn build_lattice(&self, num_qubits: usize, kind_override: Option<LatticeKind>) -> Lattice {
        let kind = kind_override.unwrap_or(self.lattice.kind);
        let radius = self.lattice.radius_for(kind);
        if self.lattice.rows > 0 && self.lattice.cols > 0 {
            Lattice::with_geometry(
                kind,
                self.lattice.rows,
                self.lattice.cols,
                self.lattice.spacing,
                radius,
            )
        } else {
            Lattice::sized_for(kind, num_qubits, self.lattice.spacing, radius)
        }
    }

    /// The blocking-round parallelism cap as an `Option` (`0` means
    /// unlimited).
    pub fn parallel_block_limit(&self) -> Option<usize> {
        match self.max_parallel_blocks {
            0 => None,
            n => Some(n),
        }
    }

    /// Parses a scenario from JSON text.
    pub fn from_json(body: &str) -> Result<Self, HardwareSpecError> {
        let spec: HardwareSpec = serde_json::from_str(body)
            .map_err(|e| HardwareSpecError(format!("invalid hardware spec JSON: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Loads a scenario from a JSON file (the `--hardware spec.json`
    /// path on the bench binaries).
    pub fn load(path: &Path) -> Result<Self, HardwareSpecError> {
        let body = fs::read_to_string(path).map_err(|e| {
            HardwareSpecError(format!("cannot read hardware spec {}: {e}", path.display()))
        })?;
        Self::from_json(&body)
            .map_err(|e| HardwareSpecError(format!("{}: {}", path.display(), e.0)))
    }

    /// Serializes the scenario as pretty JSON (the committed example
    /// scenario files use this form).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("hardware specs serialize")
    }

    /// Rejects physically meaningless scenarios with a message naming
    /// the offending field.
    pub fn validate(&self) -> Result<(), HardwareSpecError> {
        let l = &self.lattice;
        if !(l.spacing.is_finite() && l.spacing > 0.0) {
            return Err(HardwareSpecError(format!(
                "lattice.spacing must be positive and finite, got {:?}",
                l.spacing
            )));
        }
        if !(l.radius_factor.is_finite() && l.radius_factor > 0.0) {
            return Err(HardwareSpecError(format!(
                "lattice.radius_factor must be positive and finite, got {:?}",
                l.radius_factor
            )));
        }
        if (l.rows == 0) != (l.cols == 0) {
            return Err(HardwareSpecError(
                "lattice.rows and lattice.cols must both be fixed or both be 0 (auto)".to_string(),
            ));
        }
        for (field, rate) in [
            ("noise.bit_flip", self.noise.bit_flip),
            ("noise.phase_flip", self.noise.phase_flip),
            ("atom_loss", self.atom_loss),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(HardwareSpecError(format!(
                    "{field} must be a probability in [0, 1], got {rate:?}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for HardwareSpec {
    fn default() -> Self {
        Self::paper()
    }
}

// Equal specs render equal canonical strings, so hashing the digest
// is consistent with the derived `PartialEq`.
impl Hash for HardwareSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

/// A malformed or physically meaningless hardware scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareSpecError(pub String);

impl fmt::Display for HardwareSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for HardwareSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_historical_constants() {
        let spec = HardwareSpec::paper();
        assert_eq!(spec.lattice.kind, LatticeKind::Triangular);
        assert_eq!(spec.lattice.spacing, Lattice::SPACING);
        assert_eq!(spec.lattice.radius_factor, 1.01);
        assert_eq!(spec.parallel_block_limit(), None);
        assert_eq!(spec.noise, NoiseModel::default());
        assert_eq!(spec.atom_loss, 0.0);
        assert!(spec.is_paper());
    }

    #[test]
    fn paper_lattices_are_bit_identical_to_legacy_constructors() {
        let spec = HardwareSpec::paper();
        for n in 1..30 {
            assert_eq!(spec.build_lattice(n, None), Lattice::triangular_for(n));
            assert_eq!(
                spec.build_lattice(n, Some(LatticeKind::Square)),
                Lattice::square_for(n)
            );
        }
        let diag = HardwareSpec::square_diagonal();
        let lat = diag.build_lattice(9, None);
        assert_eq!(lat, Lattice::square_diagonal(3, 3));
    }

    #[test]
    fn digest_is_stable_and_label_independent() {
        let spec = HardwareSpec::paper();
        assert_eq!(spec.digest(), spec.clone().digest());
        assert_eq!(spec.digest(), spec.clone().named("renamed").digest());
        // Pin the value: any change here invalidates every cache and
        // reuse store in the wild, so it must be deliberate.
        assert_eq!(spec.digest(), 0x7925_376e_27ff_4848);
    }

    #[test]
    fn digest_separates_every_behavioral_field() {
        let base = HardwareSpec::paper();
        let variants = [
            HardwareSpec {
                lattice: LatticeSpec {
                    kind: LatticeKind::Square,
                    ..base.lattice.clone()
                },
                ..base.clone()
            },
            HardwareSpec {
                lattice: LatticeSpec {
                    rows: 4,
                    cols: 4,
                    ..base.lattice.clone()
                },
                ..base.clone()
            },
            HardwareSpec {
                lattice: LatticeSpec {
                    spacing: 2.0,
                    ..base.lattice.clone()
                },
                ..base.clone()
            },
            HardwareSpec {
                lattice: LatticeSpec {
                    radius_factor: 1.5,
                    ..base.lattice.clone()
                },
                ..base.clone()
            },
            HardwareSpec {
                max_parallel_blocks: 2,
                ..base.clone()
            },
            HardwareSpec {
                noise: NoiseModel::symmetric(0.01),
                ..base.clone()
            },
            HardwareSpec {
                noise: NoiseModel::default().with_per_operation_granularity(),
                ..base.clone()
            },
            HardwareSpec {
                atom_loss: 0.01,
                ..base.clone()
            },
        ];
        let mut digests = vec![base.digest()];
        for v in &variants {
            let d = v.digest();
            assert!(!digests.contains(&d), "digest collision for {v:?}");
            digests.push(d);
        }
    }

    #[test]
    fn json_roundtrip_preserves_digest() {
        for spec in [
            HardwareSpec::paper(),
            HardwareSpec::square_diagonal(),
            HardwareSpec::near_term(),
        ] {
            let back = HardwareSpec::from_json(&spec.to_json_pretty()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.digest(), spec.digest());
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut bad = HardwareSpec::paper();
        bad.lattice.spacing = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = HardwareSpec::paper();
        bad.lattice.rows = 3; // cols still 0
        assert!(bad.validate().is_err());
        let mut bad = HardwareSpec::paper();
        bad.atom_loss = 1.5;
        assert!(bad.validate().is_err());
        assert!(HardwareSpec::from_json("{").is_err());
    }

    #[test]
    fn fixed_dimensions_override_auto_sizing() {
        let mut spec = HardwareSpec::paper();
        spec.lattice.rows = 5;
        spec.lattice.cols = 2;
        let lat = spec.build_lattice(3, None);
        assert_eq!((lat.rows(), lat.cols()), (5, 2));
    }

    #[test]
    fn near_term_caps_parallel_blocks() {
        assert_eq!(HardwareSpec::near_term().parallel_block_limit(), Some(4));
    }
}
