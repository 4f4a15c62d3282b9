//! The blocking algorithm (paper Algorithm 1).

use geyser_circuit::Circuit;
use geyser_telemetry::Telemetry;
use geyser_topology::Lattice;

use crate::{Block, BlockError, BlockedCircuit, Round};

/// Configuration for [`block_circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingConfig {
    /// Score blocks by pulse count (the paper's pulse-aware mode).
    /// When `false`, blocks are scored by operation count — the
    /// gate-centric baseline used in the ablation study.
    pub pulse_aware: bool,
    /// Hardware cap on blocks pulsed simultaneously in one round:
    /// the family search stops growing a round at this many blocks.
    /// `None` (the paper's assumption) leaves parallelism unlimited.
    pub max_blocks_per_round: Option<usize>,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            pulse_aware: true,
            max_blocks_per_round: None,
        }
    }
}

/// One block candidate during a round: `(qubits, absorbed op indices,
/// per-qubit frontier advance, score)`.
type Candidate = (Vec<usize>, Vec<usize>, Vec<(usize, usize)>, u64);

/// Per-qubit frontier state over the source circuit.
struct Frontier {
    /// `per_qubit[q]` = source op indices touching qubit `q`.
    per_qubit: Vec<Vec<usize>>,
    /// `ptr[q]` = how many of `per_qubit[q]` are already blocked.
    ptr: Vec<usize>,
}

impl Frontier {
    fn new(circuit: &Circuit) -> Self {
        Frontier {
            per_qubit: circuit.per_qubit_op_indices(),
            ptr: vec![0; circuit.num_qubits()],
        }
    }

    fn exhausted(&self) -> bool {
        self.ptr
            .iter()
            .zip(&self.per_qubit)
            .all(|(&p, ops)| p >= ops.len())
    }

    /// Next unblocked op index on qubit `q`, if any.
    fn next_on(&self, q: usize) -> Option<usize> {
        self.per_qubit[q].get(self.ptr[q]).copied()
    }
}

/// Greedily absorbs the maximal contiguous frontier slice that stays
/// inside `qubits`. Returns the absorbed op indices (ascending) and
/// the per-qubit count of absorbed ops.
fn absorb(
    circuit: &Circuit,
    frontier: &Frontier,
    qubits: &[usize],
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut local: Vec<(usize, usize)> = qubits.iter().map(|&q| (q, frontier.ptr[q])).collect();
    let next_of = |local: &[(usize, usize)], q: usize| -> Option<usize> {
        let ptr = local.iter().find(|&&(lq, _)| lq == q)?.1;
        frontier.per_qubit[q].get(ptr).copied()
    };
    let mut absorbed = Vec::new();
    loop {
        // Find the smallest-index absorbable op among the frontier
        // candidates of the block's qubits.
        let mut best: Option<usize> = None;
        for &(q, _) in &local {
            let Some(idx) = next_of(&local, q) else {
                continue;
            };
            let op = &circuit.ops()[idx];
            // Absorbable: all its qubits are in the block and `idx` is
            // the next pending op on every one of them.
            let inside = op.qubits().iter().all(|qq| qubits.contains(qq));
            if !inside {
                continue;
            }
            let at_frontier = op
                .qubits()
                .iter()
                .all(|&qq| next_of(&local, qq) == Some(idx));
            if !at_frontier {
                continue;
            }
            best = Some(best.map_or(idx, |b: usize| b.min(idx)));
        }
        let Some(idx) = best else { break };
        absorbed.push(idx);
        for &qq in circuit.ops()[idx].qubits() {
            if let Some(entry) = local.iter_mut().find(|(lq, _)| *lq == qq) {
                entry.1 += 1;
            }
        }
    }
    absorbed.sort_unstable();
    let advanced: Vec<(usize, usize)> = local
        .iter()
        .map(|&(q, p)| (q, p - frontier.ptr[q]))
        .collect();
    (absorbed, advanced)
}

/// Blocks `circuit` (expressed over `lattice` nodes, native basis)
/// into rounds of zone-compatible triangle blocks per Algorithm 1.
///
/// Operations that cannot be hosted by any triangle (possible only on
/// lattices without triangles, e.g. a plain square grid) are emitted
/// as passthrough blocks so that the partition always covers the full
/// circuit.
///
/// # Panics
///
/// Panics if the circuit's qubit count differs from the lattice size.
///
/// # Example
///
/// ```
/// use geyser_blocking::{block_circuit, BlockingConfig};
/// use geyser_circuit::Circuit;
/// use geyser_topology::Lattice;
/// let lat = Lattice::triangular(2, 2);
/// let mut c = Circuit::new(4);
/// c.cz(0, 1).h(2);
/// let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
/// assert_eq!(blocked.num_ops_covered(), 2);
/// ```
pub fn block_circuit(
    circuit: &Circuit,
    lattice: &Lattice,
    config: &BlockingConfig,
) -> BlockedCircuit {
    try_block_circuit_traced(circuit, lattice, config, &Telemetry::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`block_circuit`]: returns
/// [`BlockError::RegisterMismatch`] instead of panicking when the
/// circuit is not expressed over the lattice's node space.
///
/// Opens a span per round of the block-family search (category
/// `blocking`) and counts the rounds and blocks produced. Telemetry is
/// observational only: a disabled handle gives the same blocks.
///
/// # Example
///
/// ```
/// use geyser_blocking::{try_block_circuit_traced, BlockError, BlockingConfig};
/// use geyser_circuit::Circuit;
/// use geyser_telemetry::Telemetry;
/// use geyser_topology::Lattice;
/// let lat = Lattice::triangular(2, 2); // 4 nodes
/// let c = Circuit::new(3); // not over the node space
/// let err = try_block_circuit_traced(&c, &lat, &BlockingConfig::default(), &Telemetry::disabled());
/// assert!(matches!(err, Err(BlockError::RegisterMismatch { .. })));
/// ```
pub fn try_block_circuit_traced(
    circuit: &Circuit,
    lattice: &Lattice,
    config: &BlockingConfig,
    telemetry: &Telemetry,
) -> Result<BlockedCircuit, BlockError> {
    if circuit.num_qubits() != lattice.num_nodes() {
        return Err(BlockError::RegisterMismatch {
            circuit_qubits: circuit.num_qubits(),
            lattice_nodes: lattice.num_nodes(),
        });
    }
    let triangles = lattice.triangles();
    let mut frontier = Frontier::new(circuit);
    let mut rounds = Vec::new();

    let score = |block_ops: &[usize]| -> u64 {
        if config.pulse_aware {
            block_ops
                .iter()
                .map(|&i| circuit.ops()[i].pulses() as u64)
                .sum()
        } else {
            block_ops.len() as u64
        }
    };

    while !frontier.exhausted() {
        let mut round_span = telemetry.span("blocking", "blocking.round");
        // T: every triangle able to absorb at least one frontier op.
        let mut candidates: Vec<Candidate> = triangles
            .iter()
            .filter_map(|t| {
                let qubits = t.to_vec();
                let (ops, advanced) = absorb(circuit, &frontier, &qubits);
                if ops.is_empty() {
                    None
                } else {
                    let s = score(&ops);
                    Some((qubits, ops, advanced, s))
                }
            })
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.3));

        if candidates.is_empty() {
            // Fallback: the earliest fully-ready op (all predecessors
            // blocked) becomes a passthrough block.
            let idx = (0..circuit.num_qubits())
                .filter_map(|q| frontier.next_on(q))
                .filter(|&i| {
                    circuit.ops()[i]
                        .qubits()
                        .iter()
                        .all(|&q| frontier.next_on(q) == Some(i))
                })
                .min()
                // invariant: an unexhausted frontier always exposes at
                // least one op whose operands all sit at their
                // frontiers (the earliest unblocked op qualifies).
                .expect("frontier not exhausted implies a ready op exists");
            let op = &circuit.ops()[idx];
            let block = Block::new(op.qubits().to_vec(), vec![idx], false);
            for &q in op.qubits() {
                frontier.ptr[q] += 1;
            }
            round_span.attr("passthrough", true);
            telemetry.counter_add("blocking.passthrough_blocks", 1);
            rounds.push(Round::new(vec![block]));
            continue;
        }
        round_span.attr("candidates", candidates.len());

        // Block-family search: seed with each candidate, then greedily
        // add zone-compatible candidates by descending score
        // (paper Fig. 8's family construction), up to the hardware's
        // simultaneous-pulse cap.
        let cap = config.max_blocks_per_round.unwrap_or(usize::MAX).max(1);
        let mut best_family: Vec<usize> = Vec::new();
        let mut best_score = 0u64;
        for seed in 0..candidates.len() {
            let mut family = vec![seed];
            let mut family_score = candidates[seed].3;
            for (j, cand) in candidates.iter().enumerate() {
                if family.len() >= cap {
                    break;
                }
                if j == seed {
                    continue;
                }
                let compatible = family
                    .iter()
                    .all(|&k| !lattice.gates_conflict(&candidates[k].0, &cand.0));
                if compatible {
                    family.push(j);
                    family_score += cand.3;
                }
            }
            if family_score > best_score {
                best_score = family_score;
                best_family = family;
            }
        }

        // Commit the family as one round; advance the frontier.
        let mut blocks = Vec::new();
        for &k in &best_family {
            let (qubits, ops, advanced, _) = &candidates[k];
            blocks.push(Block::new(qubits.clone(), ops.clone(), true));
            for &(q, delta) in advanced {
                frontier.ptr[q] += delta;
            }
        }
        round_span.attr("blocks", blocks.len());
        telemetry.counter_add("blocking.triangle_blocks", blocks.len() as u64);
        rounds.push(Round::new(blocks));
    }
    telemetry.counter_add("blocking.rounds", rounds.len() as u64);

    Ok(BlockedCircuit::new(circuit.clone(), rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_num::hilbert_schmidt_distance;
    use geyser_sim::circuit_unitary;

    fn assert_partition_valid(blocked: &BlockedCircuit) {
        // Every op exactly once.
        let mut seen = vec![false; blocked.source().len()];
        for block in blocked.blocks() {
            for &i in block.op_indices() {
                assert!(!seen[i], "op {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some op left uncovered");
        // Reassembly preserves the unitary (valid reordering).
        if blocked.source().num_qubits() <= 10 {
            let d = hilbert_schmidt_distance(
                &circuit_unitary(blocked.source()),
                &circuit_unitary(&blocked.reassemble()),
            );
            assert!(d < 1e-9, "reassembled circuit diverged, HSD = {d}");
        }
    }

    fn assert_rounds_zone_compatible(blocked: &BlockedCircuit, lattice: &Lattice) {
        for round in blocked.rounds() {
            let blocks = round.blocks();
            for i in 0..blocks.len() {
                for j in (i + 1)..blocks.len() {
                    assert!(
                        !lattice.gates_conflict(blocks[i].qubits(), blocks[j].qubits()),
                        "round contains conflicting blocks"
                    );
                }
            }
        }
    }

    #[test]
    fn simple_circuit_blocks_fully() {
        let lat = Lattice::triangular(2, 2);
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).cz(1, 2).h(2).cz(0, 2);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_rounds_zone_compatible(&blocked, &lat);
        // 0,1,2 form a triangle: a single block should take everything.
        assert_eq!(blocked.num_blocks(), 1);
        assert!(blocked.blocks().next().unwrap().is_triangle());
    }

    #[test]
    fn ops_spanning_triangles_split_into_rounds() {
        let lat = Lattice::triangular(3, 3);
        let mut c = Circuit::new(9);
        // Chain crossing multiple triangles.
        c.cz(0, 1).cz(1, 2).cz(3, 4).cz(4, 5).cz(1, 4).cz(2, 5);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_rounds_zone_compatible(&blocked, &lat);
        assert!(blocked.num_blocks() >= 2);
    }

    #[test]
    fn parallel_blocks_share_a_round() {
        // Two independent CZ chains far apart on a 3×6 lattice.
        let lat = Lattice::triangular(3, 6);
        let mut c = Circuit::new(18);
        c.cz(0, 1).h(0).cz(16, 17).h(17);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_rounds_zone_compatible(&blocked, &lat);
        // Both groups fit in one round as two parallel blocks.
        assert_eq!(blocked.rounds().len(), 1);
        assert_eq!(blocked.rounds()[0].blocks().len(), 2);
    }

    #[test]
    fn square_lattice_degrades_to_passthrough() {
        // Square grids have no triangles: everything passes through.
        let lat = Lattice::square(2, 2);
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).cz(2, 3);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_eq!(blocked.num_triangle_blocks(), 0);
        assert_eq!(blocked.num_blocks(), 3);
    }

    #[test]
    fn pulse_aware_vs_gate_aware_both_partition() {
        let lat = Lattice::triangular(3, 3);
        let mut c = Circuit::new(9);
        for i in 0..8 {
            c.cz(i, i + 1);
            c.h(i);
        }
        for cfg in [
            BlockingConfig {
                pulse_aware: true,
                ..BlockingConfig::default()
            },
            BlockingConfig {
                pulse_aware: false,
                ..BlockingConfig::default()
            },
        ] {
            let blocked = block_circuit(&c, &lat, &cfg);
            assert_partition_valid(&blocked);
            assert_rounds_zone_compatible(&blocked, &lat);
        }
    }

    #[test]
    fn round_cap_limits_simultaneous_blocks() {
        // A wide layer that unlimited blocking packs into multi-block
        // rounds must serialize under a cap of one block per round,
        // while still covering the circuit exactly.
        let lat = Lattice::triangular(3, 6);
        let mut c = Circuit::new(18);
        for q in 0..18 {
            c.h(q);
        }
        let unlimited = block_circuit(&c, &lat, &BlockingConfig::default());
        assert!(
            unlimited.rounds().iter().any(|r| r.blocks().len() > 1),
            "test premise: unlimited blocking parallelizes"
        );
        let capped_cfg = BlockingConfig {
            max_blocks_per_round: Some(1),
            ..BlockingConfig::default()
        };
        let capped = block_circuit(&c, &lat, &capped_cfg);
        assert_partition_valid(&capped);
        for round in capped.rounds() {
            assert!(round.blocks().len() <= 1);
        }
        assert!(capped.rounds().len() > unlimited.rounds().len());
    }

    #[test]
    fn empty_circuit_yields_no_rounds() {
        let lat = Lattice::triangular(2, 2);
        let blocked = block_circuit(&Circuit::new(4), &lat, &BlockingConfig::default());
        assert_eq!(blocked.num_blocks(), 0);
        assert!(blocked.rounds().is_empty());
    }

    #[test]
    fn deep_single_triangle_circuit_is_one_block() {
        let lat = Lattice::triangular(2, 2);
        let mut c = Circuit::new(4);
        for _ in 0..10 {
            c.cz(0, 1).h(1).cz(1, 2).h(0);
        }
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_eq!(blocked.num_blocks(), 1);
        assert_eq!(blocked.blocks().next().unwrap().num_ops(), 40);
    }

    #[test]
    fn blocking_respects_dependencies_across_rounds() {
        // An op on (2,3) depends on an earlier op on (1,2): the
        // reassembled order must keep them correctly ordered, which
        // assert_partition_valid checks via the unitary.
        let lat = Lattice::triangular(2, 3);
        let mut c = Circuit::new(6);
        c.h(1).cz(1, 2).t(2).cz(2, 3).h(3).cz(0, 1).cz(4, 5);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        assert_partition_valid(&blocked);
        assert_rounds_zone_compatible(&blocked, &lat);
    }

    #[test]
    #[should_panic(expected = "over lattice nodes")]
    fn size_mismatch_panics() {
        let lat = Lattice::triangular(2, 2);
        let _ = block_circuit(&Circuit::new(3), &lat, &BlockingConfig::default());
    }
}
