//! Atom grid geometry and adjacency.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// The geometric family of an atom arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatticeKind {
    /// Equilateral triangular grid — Geyser's choice (paper Fig. 7a).
    /// Interior atoms have six equidistant neighbours; every adjacent
    /// triple forms an executable CCZ triangle.
    Triangular,
    /// Square grid with perpendicular neighbours only — the layout
    /// used for the superconducting-qubit comparison (paper Sec. 4).
    Square,
    /// Square grid whose interaction radius also reaches diagonal
    /// neighbours (paper Fig. 7b) — used in the topology ablation.
    SquareDiagonal,
}

/// An arrangement of neutral atoms with Rydberg-radius adjacency.
///
/// Atoms are indexed `0..num_nodes()` in row-major order. Two atoms
/// are *adjacent* when their separation is within the interaction
/// radius, meaning a multi-qubit Rydberg gate can engage them — and,
/// dually, that one atom falls inside the other's restriction zone
/// while a multi-qubit gate runs nearby (paper Sec. 2.2).
///
/// # Example
///
/// ```
/// use geyser_topology::{Lattice, LatticeKind};
/// let lat = Lattice::triangular(3, 3);
/// assert_eq!(lat.kind(), LatticeKind::Triangular);
/// assert_eq!(lat.num_nodes(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lattice {
    kind: LatticeKind,
    rows: usize,
    cols: usize,
    positions: Vec<(f64, f64)>,
    neighbors: Vec<Vec<usize>>,
}

impl Lattice {
    /// Unit spacing between adjacent atoms (arbitrary length unit; the
    /// paper's technological parameters fix it at a few μm).
    pub const SPACING: f64 = 1.0;

    /// Builds a triangular grid with `rows × cols` atoms.
    ///
    /// Odd rows are offset by half a spacing, giving interior atoms
    /// six equidistant neighbours at distance [`Lattice::SPACING`].
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn triangular(rows: usize, cols: usize) -> Self {
        Self::with_geometry(LatticeKind::Triangular, rows, cols, Self::SPACING, 1.01)
    }

    /// Builds a square grid with perpendicular adjacency only.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn square(rows: usize, cols: usize) -> Self {
        Self::with_geometry(LatticeKind::Square, rows, cols, Self::SPACING, 1.01)
    }

    /// Builds a square grid whose interaction radius reaches diagonal
    /// neighbours (radius √2·spacing, paper Fig. 7b).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn square_diagonal(rows: usize, cols: usize) -> Self {
        Self::with_geometry(
            LatticeKind::SquareDiagonal,
            rows,
            cols,
            Self::SPACING,
            std::f64::consts::SQRT_2 * 1.01,
        )
    }

    /// Builds a lattice of any family with explicit geometry: atom
    /// `spacing` between grid neighbours and an absolute interaction
    /// `radius`. The paper's layouts correspond to spacing 1.0 with
    /// radius `1.01·spacing` (triangular, square) or `√2·1.01·spacing`
    /// (diagonal square).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`, or if `spacing`/`radius`
    /// are not positive finite numbers.
    pub fn with_geometry(
        kind: LatticeKind,
        rows: usize,
        cols: usize,
        spacing: f64,
        radius: f64,
    ) -> Self {
        assert!(
            spacing.is_finite() && spacing > 0.0,
            "atom spacing must be positive and finite"
        );
        assert!(
            radius.is_finite() && radius > 0.0,
            "interaction radius must be positive and finite"
        );
        let positions = match kind {
            LatticeKind::Triangular => (0..rows)
                .flat_map(|r| {
                    (0..cols).map(move |c| {
                        let x = c as f64 * spacing + if r % 2 == 1 { spacing / 2.0 } else { 0.0 };
                        let y = r as f64 * spacing * 3f64.sqrt() / 2.0;
                        (x, y)
                    })
                })
                .collect(),
            LatticeKind::Square | LatticeKind::SquareDiagonal => (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (c as f64 * spacing, r as f64 * spacing)))
                .collect(),
        };
        Self::from_positions(kind, rows, cols, positions, radius)
    }

    /// Sizes a lattice of any family just large enough to host
    /// `num_qubits` atoms (the [`Lattice::grid_dims`] policy), built
    /// with explicit geometry as in [`Lattice::with_geometry`].
    pub fn sized_for(kind: LatticeKind, num_qubits: usize, spacing: f64, radius: f64) -> Self {
        let (r, c) = Self::grid_dims(num_qubits);
        Self::with_geometry(kind, r, c, spacing, radius)
    }

    /// Chooses a lattice just large enough to host `num_qubits` atoms,
    /// keeping the aspect ratio near square.
    pub fn triangular_for(num_qubits: usize) -> Self {
        let (r, c) = Self::grid_dims(num_qubits);
        Self::triangular(r, c)
    }

    /// Square-lattice counterpart of [`Lattice::triangular_for`].
    pub fn square_for(num_qubits: usize) -> Self {
        let (r, c) = Self::grid_dims(num_qubits);
        Self::square(r, c)
    }

    /// The near-square `(rows, cols)` grid sizing policy used by the
    /// `*_for` constructors: `cols = ⌈√n⌉`, `rows = ⌈n / cols⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0`.
    pub fn grid_dims(num_qubits: usize) -> (usize, usize) {
        assert!(num_qubits > 0, "need at least one qubit");
        let c = (num_qubits as f64).sqrt().ceil() as usize;
        let r = num_qubits.div_ceil(c);
        (r.max(1), c.max(1))
    }

    fn from_positions(
        kind: LatticeKind,
        rows: usize,
        cols: usize,
        positions: Vec<(f64, f64)>,
        radius: f64,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "lattice dimensions must be non-zero");
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        for a in 0..n {
            for b in (a + 1)..n {
                let dx = positions[a].0 - positions[b].0;
                let dy = positions[a].1 - positions[b].1;
                if (dx * dx + dy * dy).sqrt() <= radius {
                    neighbors[a].push(b);
                    neighbors[b].push(a);
                }
            }
        }
        Lattice {
            kind,
            rows,
            cols,
            positions,
            neighbors,
        }
    }

    /// The lattice family.
    #[inline]
    pub fn kind(&self) -> LatticeKind {
        self.kind
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of atoms.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Physical coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn position(&self, node: usize) -> (f64, f64) {
        self.positions[node]
    }

    /// Nodes within the interaction radius of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.neighbors[node]
    }

    /// Returns `true` if `a` and `b` are within the interaction radius.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        a != b && self.neighbors[a].contains(&b)
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.positions[a];
        let (bx, by) = self.positions[b];
        (ax - bx).hypot(ay - by)
    }

    /// The restriction zone of a multi-qubit gate engaging `engaged`:
    /// every atom within the interaction radius of an engaged atom
    /// that is not itself engaged (paper Fig. 4). Those atoms cannot
    /// run any gate while this one executes.
    pub fn restriction_zone(&self, engaged: &[usize]) -> BTreeSet<usize> {
        let mut zone = BTreeSet::new();
        for &q in engaged {
            for &nb in &self.neighbors[q] {
                if !engaged.contains(&nb) {
                    zone.insert(nb);
                }
            }
        }
        zone
    }

    /// Returns `true` if two gate executions conflict: their engaged
    /// sets intersect, or either (being multi-qubit, hence generating
    /// a restriction zone) restricts a qubit the other engages.
    ///
    /// Single-qubit gates produce no zone (paper Sec. 2.2), so two
    /// single-qubit gates conflict only when they target the same atom.
    pub fn gates_conflict(&self, engaged_a: &[usize], engaged_b: &[usize]) -> bool {
        if engaged_a.iter().any(|q| engaged_b.contains(q)) {
            return true;
        }
        let a_multi = engaged_a.len() > 1;
        let b_multi = engaged_b.len() > 1;
        if a_multi
            && engaged_b
                .iter()
                .any(|&b| engaged_a.iter().any(|&a| self.are_adjacent(a, b)))
        {
            return true;
        }
        if b_multi
            && engaged_a
                .iter()
                .any(|&a| engaged_b.iter().any(|&b| self.are_adjacent(a, b)))
        {
            return true;
        }
        false
    }

    /// All mutually-adjacent node triples, each sorted ascending —
    /// the candidate CCZ blocks for circuit blocking.
    pub fn triangles(&self) -> Vec<[usize; 3]> {
        let mut tris = Vec::new();
        for a in 0..self.num_nodes() {
            for (i, &b) in self.neighbors[a].iter().enumerate() {
                if b <= a {
                    continue;
                }
                for &c in &self.neighbors[a][i + 1..] {
                    if c <= a || c == b {
                        continue;
                    }
                    if self.are_adjacent(b, c) {
                        let mut t = [a, b, c];
                        t.sort_unstable();
                        tris.push(t);
                    }
                }
            }
        }
        tris
    }

    /// All adjacent node pairs (each sorted ascending).
    pub fn edges(&self) -> Vec<[usize; 2]> {
        let mut out = Vec::new();
        for a in 0..self.num_nodes() {
            for &b in &self.neighbors[a] {
                if b > a {
                    out.push([a, b]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_interior_has_six_neighbors() {
        let lat = Lattice::triangular(5, 5);
        // Node (2,2) = index 12 is interior.
        assert_eq!(lat.neighbors(12).len(), 6);
        // All six at unit distance.
        for &nb in lat.neighbors(12) {
            assert!((lat.distance(12, nb) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn square_interior_has_four_neighbors() {
        let lat = Lattice::square(5, 5);
        assert_eq!(lat.neighbors(12).len(), 4);
    }

    #[test]
    fn square_diagonal_interior_has_eight_neighbors() {
        let lat = Lattice::square_diagonal(5, 5);
        assert_eq!(lat.neighbors(12).len(), 8);
    }

    #[test]
    fn adjacency_is_symmetric() {
        for lat in [
            Lattice::triangular(4, 5),
            Lattice::square(4, 5),
            Lattice::square_diagonal(4, 5),
        ] {
            for a in 0..lat.num_nodes() {
                for &b in lat.neighbors(a) {
                    assert!(lat.are_adjacent(b, a), "{a}-{b} asymmetric");
                }
            }
        }
    }

    #[test]
    fn two_qubit_zone_at_most_eight_on_triangular() {
        // Paper Fig. 4: a two-qubit operation restricts at most 8
        // nearby qubits on the triangular lattice.
        let lat = Lattice::triangular(6, 6);
        for e in lat.edges() {
            let zone = lat.restriction_zone(&e);
            assert!(zone.len() <= 8, "edge {e:?} zone {}", zone.len());
        }
        // Some interior edge achieves exactly 8.
        let max = lat
            .edges()
            .iter()
            .map(|e| lat.restriction_zone(e).len())
            .max()
            .unwrap();
        assert_eq!(max, 8);
    }

    #[test]
    fn three_qubit_zone_at_most_nine_on_triangular() {
        // Paper Fig. 4: a three-qubit operation restricts at most 9.
        let lat = Lattice::triangular(6, 6);
        let max = lat
            .triangles()
            .iter()
            .map(|t| lat.restriction_zone(t).len())
            .max()
            .unwrap();
        assert_eq!(max, 9);
    }

    #[test]
    fn four_qubit_square_cell_zone_is_twelve() {
        // Paper Fig. 7b: a four-qubit gate on a square cell restricts
        // 12 qubits on the diagonal square lattice.
        let lat = Lattice::square_diagonal(6, 6);
        // Interior unit cell (2,2),(2,3),(3,2),(3,3) = 14,15,20,21.
        let cell = [14, 15, 20, 21];
        assert_eq!(lat.restriction_zone(&cell).len(), 12);
    }

    #[test]
    fn restriction_zone_excludes_engaged() {
        let lat = Lattice::triangular(4, 4);
        let tri = lat.triangles()[0];
        let zone = lat.restriction_zone(&tri);
        for q in tri {
            assert!(!zone.contains(&q));
        }
    }

    #[test]
    fn zone_of_single_qubit_is_its_neighborhood() {
        let lat = Lattice::triangular(4, 4);
        let zone = lat.restriction_zone(&[5]);
        assert_eq!(zone.len(), lat.neighbors(5).len());
    }

    #[test]
    fn conflict_rules() {
        let lat = Lattice::triangular(5, 5);
        // Shared qubit always conflicts.
        assert!(lat.gates_conflict(&[0], &[0]));
        // Two 1q gates on different atoms never conflict, even adjacent.
        assert!(!lat.gates_conflict(&[0], &[1]));
        // A 2q gate conflicts with an adjacent 1q gate.
        let edge = lat.edges()[0];
        let nb = lat
            .restriction_zone(&edge)
            .into_iter()
            .next()
            .expect("edge has a zone");
        assert!(lat.gates_conflict(&edge, &[nb]));
        // Far-apart multi-qubit gates do not conflict.
        let tris = lat.triangles();
        let t1 = tris[0];
        let far = tris
            .iter()
            .find(|t| {
                t.iter()
                    .all(|&q| t1.iter().all(|&p| !lat.are_adjacent(p, q) && p != q))
            })
            .expect("lattice large enough for disjoint triangles");
        assert!(!lat.gates_conflict(&t1, far));
    }

    #[test]
    fn triangular_lattice_has_triangles_square_does_not() {
        assert!(!Lattice::triangular(3, 3).triangles().is_empty());
        assert!(Lattice::square(3, 3).triangles().is_empty());
        assert!(!Lattice::square_diagonal(3, 3).triangles().is_empty());
    }

    #[test]
    fn triangles_are_sorted_and_unique() {
        let lat = Lattice::triangular(4, 4);
        let tris = lat.triangles();
        let mut seen = std::collections::BTreeSet::new();
        for t in &tris {
            assert!(t[0] < t[1] && t[1] < t[2], "unsorted triangle {t:?}");
            assert!(seen.insert(*t), "duplicate triangle {t:?}");
        }
    }

    #[test]
    fn sized_constructors_fit_requested_qubits() {
        for n in 1..30 {
            assert!(Lattice::triangular_for(n).num_nodes() >= n);
            assert!(Lattice::square_for(n).num_nodes() >= n);
        }
    }

    #[test]
    fn with_geometry_reproduces_paper_constructors_bit_identically() {
        assert_eq!(
            Lattice::with_geometry(LatticeKind::Triangular, 4, 5, 1.0, 1.01),
            Lattice::triangular(4, 5)
        );
        assert_eq!(
            Lattice::with_geometry(LatticeKind::Square, 4, 5, 1.0, 1.01),
            Lattice::square(4, 5)
        );
        assert_eq!(
            Lattice::with_geometry(
                LatticeKind::SquareDiagonal,
                3,
                3,
                1.0,
                std::f64::consts::SQRT_2 * 1.01,
            ),
            Lattice::square_diagonal(3, 3)
        );
        for n in 1..20 {
            assert_eq!(
                Lattice::sized_for(LatticeKind::Triangular, n, 1.0, 1.01),
                Lattice::triangular_for(n)
            );
        }
    }

    #[test]
    fn wider_radius_reaches_diagonal_neighbors() {
        // Radius 1.5 on a plain square grid reaches the √2 diagonal,
        // so the perpendicular-only family gains triangles.
        let lat = Lattice::with_geometry(LatticeKind::Square, 3, 3, 1.0, 1.5);
        assert!(lat.are_adjacent(0, 4));
        assert!(!lat.triangles().is_empty());
    }

    #[test]
    fn edges_count_matches_neighbor_lists() {
        let lat = Lattice::triangular(4, 4);
        let total_degree: usize = (0..lat.num_nodes()).map(|v| lat.neighbors(v).len()).sum();
        assert_eq!(lat.edges().len() * 2, total_degree);
    }
}
