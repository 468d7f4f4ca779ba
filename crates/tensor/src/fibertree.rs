//! The fibertree abstraction (paper §2.2, Figure 2).
//!
//! A fibertree is a tree representation of a tensor with one level per
//! rank. Each level contains *fibers*: sets of `(coordinate, payload)`
//! pairs sharing higher-level coordinates. Payloads are scalar values at
//! the leaves and references to next-level fibers at intermediate nodes.
//!
//! Fibertrees handle dense and sparse tensors uniformly: a dense tensor's
//! fibers contain every coordinate in the shape, a sparse tensor's fibers
//! omit coordinates with empty payloads.

use std::collections::BTreeMap;
use std::fmt;

/// A payload: a scalar at a leaf, or a child fiber at an inner level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Leaf scalar value.
    Value(u64),
    /// Reference to the next-level fiber.
    Fiber(Fiber),
}

impl Payload {
    /// The scalar, if this is a leaf payload.
    pub(crate) fn value(&self) -> Option<u64> {
        match self {
            Payload::Value(v) => Some(*v),
            Payload::Fiber(_) => None,
        }
    }

    /// The child fiber, if this is an inner payload.
    pub fn fiber(&self) -> Option<&Fiber> {
        match self {
            Payload::Value(_) => None,
            Payload::Fiber(f) => Some(f),
        }
    }
}

/// A fiber: ordered `(coordinate, payload)` pairs with a shape.
///
/// # Examples
///
/// ```
/// use rteaal_tensor::fibertree::Fiber;
/// let f = Fiber::from_values(3, [(0, 2), (2, 1)]);
/// assert_eq!(f.shape(), 3);
/// assert_eq!(f.occupancy(), 2);
/// assert_eq!(f.value_at(2), Some(1));
/// assert_eq!(f.value_at(1), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fiber {
    shape: usize,
    entries: BTreeMap<usize, Payload>,
}

impl Fiber {
    /// Creates an empty fiber with the given shape.
    pub(crate) fn new(shape: usize) -> Self {
        Fiber {
            shape,
            entries: BTreeMap::new(),
        }
    }

    /// Builds a leaf fiber from `(coordinate, value)` pairs; zero values
    /// are treated as empty and omitted.
    pub fn from_values(shape: usize, pairs: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut f = Fiber::new(shape);
        for (c, v) in pairs {
            if v != 0 {
                f.set_value(c, v);
            }
        }
        f
    }

    /// The number of possible coordinates (paper: *shape*).
    pub fn shape(&self) -> usize {
        self.shape
    }

    /// The number of non-empty coordinates (paper: *occupancy*).
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// The payload at a coordinate.
    fn payload_at(&self, coord: usize) -> Option<&Payload> {
        self.entries.get(&coord)
    }

    /// The leaf value at a coordinate.
    pub fn value_at(&self, coord: usize) -> Option<u64> {
        self.payload_at(coord).and_then(Payload::value)
    }

    /// The child fiber at a coordinate.
    pub fn fiber_at(&self, coord: usize) -> Option<&Fiber> {
        self.payload_at(coord).and_then(Payload::fiber)
    }

    /// Sets a leaf value (a zero still creates an explicit entry).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the shape.
    pub(crate) fn set_value(&mut self, coord: usize, value: u64) {
        assert!(
            coord < self.shape,
            "coordinate {coord} outside shape {}",
            self.shape
        );
        self.entries.insert(coord, Payload::Value(value));
    }

    /// Sets a child fiber.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the shape.
    fn set_fiber(&mut self, coord: usize, fiber: Fiber) {
        assert!(
            coord < self.shape,
            "coordinate {coord} outside shape {}",
            self.shape
        );
        self.entries.insert(coord, Payload::Fiber(fiber));
    }

    /// Iterates `(coordinate, payload)` pairs in coordinate order — the
    /// concordant-traversal order every kernel in the paper relies on.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Payload)> {
        self.entries.iter().map(|(&c, p)| (c, p))
    }

    /// Iterates only leaf values, in coordinate order.
    pub fn iter_values(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.entries
            .iter()
            .filter_map(|(&c, p)| p.value().map(|v| (c, v)))
    }
}

impl FromIterator<(usize, u64)> for Fiber {
    /// Collects `(coordinate, value)` pairs into a fiber whose shape is one
    /// past the largest coordinate.
    fn from_iter<T: IntoIterator<Item = (usize, u64)>>(iter: T) -> Self {
        let pairs: Vec<(usize, u64)> = iter.into_iter().collect();
        let shape = pairs.iter().map(|&(c, _)| c + 1).max().unwrap_or(0);
        Fiber::from_values(shape, pairs)
    }
}

/// A tensor as a fibertree: named ranks plus the root fiber.
///
/// # Examples
///
/// Build the matrix `A` of paper Figure 2 and inspect its fibers:
///
/// ```
/// use rteaal_tensor::fibertree::Tensor;
/// // A = [[0 0 1] [2 3 4]], ranks M (rows) and K (columns).
/// let a = Tensor::from_dense_2d("A", ["M", "K"], &[&[0, 0, 1], &[2, 3, 4]]);
/// assert_eq!(a.root().occupancy(), 2);
/// assert_eq!(a.root().fiber_at(0).unwrap().occupancy(), 1);
/// assert_eq!(a.root().fiber_at(1).unwrap().occupancy(), 3);
/// assert_eq!(a.get(&[0, 2]), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    name: String,
    rank_names: Vec<String>,
    root: Fiber,
}

impl Tensor {
    /// Creates an empty tensor with the given rank names and shapes.
    pub fn new(
        name: impl Into<String>,
        ranks: impl IntoIterator<Item = impl Into<String>>,
        shapes: &[usize],
    ) -> Self {
        let rank_names: Vec<String> = ranks.into_iter().map(Into::into).collect();
        assert_eq!(rank_names.len(), shapes.len(), "one shape per rank");
        assert!(!rank_names.is_empty(), "tensors need at least one rank");
        Tensor {
            name: name.into(),
            rank_names,
            root: Fiber::new(shapes[0]),
        }
    }

    /// Builds a rank-1 tensor from a dense slice (zeros become empty).
    pub fn from_dense_1d(name: impl Into<String>, rank: impl Into<String>, data: &[u64]) -> Self {
        let mut t = Tensor::new(name, [rank], &[data.len()]);
        for (i, &v) in data.iter().enumerate() {
            if v != 0 {
                t.root.set_value(i, v);
            }
        }
        t
    }

    /// Builds a rank-2 tensor from dense rows (zeros become empty).
    pub fn from_dense_2d(name: impl Into<String>, ranks: [&str; 2], rows: &[&[u64]]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut t = Tensor::new(name, ranks, &[rows.len(), cols]);
        for (m, row) in rows.iter().enumerate() {
            let fiber = Fiber::from_values(cols, row.iter().enumerate().map(|(k, &v)| (k, v)));
            if fiber.occupancy() > 0 {
                t.root.set_fiber(m, fiber);
            }
        }
        t
    }

    /// Rank names, outermost first.
    pub fn rank_names(&self) -> &[String] {
        &self.rank_names
    }

    /// Number of ranks.
    fn num_ranks(&self) -> usize {
        self.rank_names.len()
    }

    /// The root fiber.
    pub fn root(&self) -> &Fiber {
        &self.root
    }

    /// Reads the scalar at a full coordinate tuple; `None` when any level
    /// is empty along the path.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong number of coordinates.
    pub fn get(&self, point: &[usize]) -> Option<u64> {
        assert_eq!(
            point.len(),
            self.num_ranks(),
            "point arity must match rank count"
        );
        let mut fiber = &self.root;
        for &c in &point[..point.len() - 1] {
            fiber = fiber.fiber_at(c)?;
        }
        fiber.value_at(point[point.len() - 1])
    }

    /// Writes a scalar at a full coordinate tuple, creating intermediate
    /// fibers as needed (their shapes default to the coordinate + 1 when
    /// unknown).
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong number of coordinates.
    pub fn set(&mut self, point: &[usize], value: u64) {
        assert_eq!(
            point.len(),
            self.num_ranks(),
            "point arity must match rank count"
        );
        fn descend(fiber: &mut Fiber, point: &[usize], value: u64) {
            if point.len() == 1 {
                if point[0] >= fiber.shape() {
                    fiber.shape = point[0] + 1;
                }
                fiber.set_value(point[0], value);
                return;
            }
            let c = point[0];
            if c >= fiber.shape() {
                fiber.shape = c + 1;
            }
            if fiber.fiber_at(c).is_none() {
                fiber.set_fiber(c, Fiber::new(point[1] + 1));
            }
            match fiber.entries.get_mut(&c) {
                Some(Payload::Fiber(child)) => descend(child, &point[1..], value),
                _ => unreachable!("just inserted"),
            }
        }
        descend(&mut self.root, point, value);
    }

    /// Total number of non-empty leaf values.
    pub(crate) fn nnz(&self) -> usize {
        fn count(fiber: &Fiber) -> usize {
            fiber
                .iter()
                .map(|(_, p)| match p {
                    Payload::Value(_) => 1,
                    Payload::Fiber(f) => count(f),
                })
                .sum()
        }
        count(&self.root)
    }

    /// Iterates all `(point, value)` pairs in lexicographic order.
    pub fn iter_points(&self) -> Vec<(Vec<usize>, u64)> {
        fn walk(fiber: &Fiber, prefix: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, u64)>) {
            for (c, p) in fiber.iter() {
                prefix.push(c);
                match p {
                    Payload::Value(v) => out.push((prefix.clone(), *v)),
                    Payload::Fiber(f) => walk(f, prefix, out),
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut Vec::new(), &mut out);
        out
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] nnz={}",
            self.name,
            self.rank_names.join(","),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 2: matrix A with fibers of occupancy 1 and 3.
    fn figure_2_matrix() -> Tensor {
        Tensor::from_dense_2d("A", ["M", "K"], &[&[0, 0, 1], &[2, 3, 4]])
    }

    #[test]
    fn figure_2_shapes_and_occupancies() {
        let a = figure_2_matrix();
        let m_fiber = a.root();
        assert_eq!(m_fiber.shape(), 2);
        assert_eq!(m_fiber.occupancy(), 2);
        let k0 = m_fiber.fiber_at(0).unwrap();
        let k1 = m_fiber.fiber_at(1).unwrap();
        assert_eq!((k0.shape(), k0.occupancy()), (3, 1));
        assert_eq!((k1.shape(), k1.occupancy()), (3, 3));
        assert_eq!(a.get(&[0, 2]), Some(1));
        assert_eq!(a.get(&[0, 0]), None);
    }

    #[test]
    fn sparse_tensor_omits_empty() {
        let t = Tensor::from_dense_1d("B", "R", &[0, 7, 0, 0, 9]);
        assert_eq!(t.root().occupancy(), 2);
        assert_eq!(t.root().shape(), 5);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn set_creates_intermediate_fibers() {
        let mut t = Tensor::new("T", ["I", "S", "R"], &[2, 4, 8]);
        t.set(&[1, 3, 5], 42);
        assert_eq!(t.get(&[1, 3, 5]), Some(42));
        assert_eq!(t.get(&[1, 3, 4]), None);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn iter_points_lexicographic() {
        let mut t = Tensor::new("T", ["M", "K"], &[3, 3]);
        t.set(&[2, 0], 5);
        t.set(&[0, 1], 3);
        t.set(&[0, 0], 1);
        let pts = t.iter_points();
        assert_eq!(
            pts,
            vec![(vec![0, 0], 1), (vec![0, 1], 3), (vec![2, 0], 5),]
        );
    }

    #[test]
    fn fiber_iteration_is_coordinate_ordered() {
        let f = Fiber::from_values(10, [(7, 1), (2, 2), (5, 3)]);
        let coords: Vec<usize> = f.iter().map(|(c, _)| c).collect();
        assert_eq!(coords, vec![2, 5, 7]);
    }

    #[test]
    fn from_iter_derives_shape() {
        let f: Fiber = [(1, 10u64), (4, 20)].into_iter().collect();
        assert_eq!(f.shape(), 5);
        assert_eq!(f.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "outside shape")]
    fn out_of_shape_rejected() {
        let mut f = Fiber::new(3);
        f.set_value(3, 1);
    }

    #[test]
    fn display_mentions_ranks() {
        let a = figure_2_matrix();
        assert_eq!(a.to_string(), "A[M,K] nnz=4");
    }
}
