//! Exact (A*) SWAP routing for small instances.
//!
//! The production router ([`crate::route`]) is a greedy lookahead
//! heuristic; this module finds the *provably minimal* number of SWAPs
//! for small circuits by A* search over (placement, next-gate) states.
//! It exists as a quality oracle: tests compare the heuristic's SWAP
//! counts against the optimum, and downstream users can route small
//! hot kernels exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use geyser_circuit::Circuit;
use geyser_topology::{Lattice, PathMatrix};

use crate::Layout;

/// Hard limits keeping the search space tractable.
const MAX_NODES: usize = 9;
const MAX_EXPANSIONS: usize = 2_000_000;

/// Minimal SWAP count to route `circuit` (gates of arity ≤ 2, in
/// program order) on `lattice` from `initial_layout`.
///
/// Returns `None` when the instance exceeds the search limits
/// (more than 9 lattice nodes, or the frontier budget).
///
/// The gate *order* is fixed (no commutation reordering), matching
/// the production router's model, so the two are directly comparable.
///
/// # Panics
///
/// Panics if the circuit contains gates of arity 3 (lower first) or
/// the layout does not match.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_map::{optimal_swap_count, Layout};
/// use geyser_topology::Lattice;
///
/// let lat = Lattice::square(1, 4);
/// let mut c = Circuit::new(4);
/// c.cx(0, 3);
/// let layout = Layout::trivial(4, &lat);
/// assert_eq!(optimal_swap_count(&c, &lat, &layout), Some(2));
/// ```
pub fn optimal_swap_count(
    circuit: &Circuit,
    lattice: &Lattice,
    initial_layout: &Layout,
) -> Option<usize> {
    assert!(
        circuit.iter().all(|op| op.arity() <= 2),
        "optimal routing requires gates of arity <= 2"
    );
    assert_eq!(
        initial_layout.num_logical(),
        circuit.num_qubits(),
        "layout logical-qubit count mismatch"
    );
    // Only 2-qubit gates constrain routing.
    let pairs: Vec<(usize, usize)> = circuit
        .iter()
        .filter(|op| op.arity() == 2)
        .map(|op| (op.qubits()[0], op.qubits()[1]))
        .collect();
    if pairs.is_empty() {
        return Some(0);
    }
    if lattice.num_nodes() > MAX_NODES {
        return None;
    }
    let pm = PathMatrix::new(lattice);
    let edges = lattice.edges();

    // State: placement (node index per logical qubit) + gate cursor.
    // `logical_of` is recoverable; we track node_of per logical qubit.
    let n_logical = circuit.num_qubits();
    let start: Vec<u8> = (0..n_logical)
        .map(|q| initial_layout.node_of(q) as u8)
        .collect();

    let heuristic = |placement: &[u8], cursor: usize| -> usize {
        let (a, b) = pairs[cursor];
        pm.hops(placement[a] as usize, placement[b] as usize)
            .saturating_sub(1)
    };

    // Advance the cursor over every already-satisfied gate.
    let advance = |placement: &[u8], mut cursor: usize| -> usize {
        while cursor < pairs.len() {
            let (a, b) = pairs[cursor];
            if lattice.are_adjacent(placement[a] as usize, placement[b] as usize) {
                cursor += 1;
            } else {
                break;
            }
        }
        cursor
    };

    let mut best_g: HashMap<(Vec<u8>, usize), usize> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(usize, usize, Vec<u8>)>> = BinaryHeap::new();
    let cursor0 = advance(&start, 0);
    if cursor0 == pairs.len() {
        return Some(0);
    }
    heap.push(Reverse((
        heuristic(&start, cursor0),
        cursor0,
        start.clone(),
    )));
    best_g.insert((start, cursor0), 0);

    let mut expansions = 0usize;
    while let Some(Reverse((f, cursor, placement))) = heap.pop() {
        let g = *best_g.get(&(placement.clone(), cursor))?;
        if f > g + heuristic(&placement, cursor) {
            continue; // stale heap entry
        }
        expansions += 1;
        if expansions > MAX_EXPANSIONS {
            return None;
        }
        for &[u, v] in &edges {
            let mut next = placement.clone();
            // Swap whatever sits on nodes u and v (either may be empty).
            for slot in next.iter_mut() {
                if *slot as usize == u {
                    *slot = v as u8;
                } else if *slot as usize == v {
                    *slot = u as u8;
                }
            }
            let g2 = g + 1;
            let cursor2 = advance(&next, cursor);
            if cursor2 == pairs.len() {
                return Some(g2);
            }
            let key = (next.clone(), cursor2);
            if best_g.get(&key).is_none_or(|&old| g2 < old) {
                best_g.insert(key, g2);
                heap.push(Reverse((g2 + heuristic(&next, cursor2), cursor2, next)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route;

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let lat = Lattice::square(2, 2);
        let mut c = Circuit::new(4);
        c.cx(0, 1).cz(2, 3).cx(0, 2);
        let layout = Layout::trivial(4, &lat);
        assert_eq!(optimal_swap_count(&c, &lat, &layout), Some(0));
    }

    #[test]
    fn line_distance_three_needs_two_swaps() {
        let lat = Lattice::square(1, 4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let layout = Layout::trivial(4, &lat);
        assert_eq!(optimal_swap_count(&c, &lat, &layout), Some(2));
    }

    #[test]
    fn repeated_pair_costs_once() {
        let lat = Lattice::square(1, 4);
        let mut c = Circuit::new(4);
        c.cx(0, 3).cz(0, 3).cx(3, 0);
        let layout = Layout::trivial(4, &lat);
        assert_eq!(optimal_swap_count(&c, &lat, &layout), Some(2));
    }

    #[test]
    fn heuristic_router_is_never_better_than_optimal() {
        // The oracle property: greedy SWAPs ≥ optimal SWAPs, and on
        // these small cases the gap stays tight.
        let lat = Lattice::triangular(2, 3);
        let layout = Layout::trivial(6, &lat);
        let cases: Vec<Circuit> = vec![
            {
                let mut c = Circuit::new(6);
                c.cx(0, 5).cx(1, 4).cx(2, 3);
                c
            },
            {
                let mut c = Circuit::new(6);
                c.cx(0, 4).cz(3, 5).cx(0, 2).cz(1, 5);
                c
            },
            {
                let mut c = Circuit::new(6);
                for i in 0..5 {
                    c.cx(i, 5 - i.min(4));
                }
                c
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            let optimal = optimal_swap_count(c, &lat, &layout).expect("small instance");
            let greedy = route(c, &lat, &layout).swaps_inserted;
            assert!(
                greedy >= optimal,
                "case {i}: greedy {greedy} < optimal {optimal}?!"
            );
            assert!(
                greedy <= optimal + 3,
                "case {i}: greedy {greedy} far above optimal {optimal}"
            );
        }
    }

    #[test]
    fn oversized_lattice_returns_none() {
        let lat = Lattice::triangular(4, 4);
        let c = Circuit::new(16);
        let layout = Layout::trivial(16, &lat);
        assert_eq!(optimal_swap_count(&c, &lat, &layout), Some(0));
        let mut c2 = Circuit::new(16);
        c2.cx(0, 15);
        assert_eq!(optimal_swap_count(&c2, &lat, &layout), None);
    }

    #[test]
    fn empty_circuit_is_free() {
        let lat = Lattice::square(2, 2);
        let layout = Layout::trivial(3, &lat);
        assert_eq!(optimal_swap_count(&Circuit::new(3), &lat, &layout), Some(0));
    }
}
