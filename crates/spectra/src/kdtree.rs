//! A k-d tree over coefficient vectors.
//!
//! "One builds a kd-tree over the coefficients so nearest neighbor
//! searches can be executed very quickly. A 'query' spectrum is expanded
//! on the same basis on the fly and the nearest neighbors of its
//! coefficient vector are looked up using the kd-tree." (§2.2)

/// A static k-d tree over `dim`-dimensional points with `u64` payload ids.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    nodes: Vec<Node>,
    root: Option<usize>,
}

#[derive(Debug, Clone)]
struct Node {
    point: Vec<f64>,
    id: u64,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// One nearest-neighbour hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// Payload id of the point.
    pub id: u64,
    /// Euclidean distance to the query.
    pub distance: f64,
}

impl KdTree {
    /// Builds a balanced tree from `(id, point)` pairs (median splits).
    pub(crate) fn build(dim: usize, items: Vec<(u64, Vec<f64>)>) -> KdTree {
        assert!(dim > 0, "dimension must be positive");
        for (id, p) in &items {
            assert_eq!(p.len(), dim, "point {id} has wrong dimension");
        }
        let mut tree = KdTree {
            dim,
            nodes: Vec::with_capacity(items.len()),
            root: None,
        };
        let mut work: Vec<(u64, Vec<f64>)> = items;
        tree.root = tree.build_rec(&mut work[..], 0);
        tree
    }

    fn build_rec(&mut self, items: &mut [(u64, Vec<f64>)], depth: usize) -> Option<usize> {
        if items.is_empty() {
            return None;
        }
        let axis = depth % self.dim;
        let mid = items.len() / 2;
        items.sort_by(|a, b| {
            a.1[axis]
                .partial_cmp(&b.1[axis])
                .expect("finite coordinates")
        });
        let (id, point) = items[mid].clone();
        let idx = self.nodes.len();
        self.nodes.push(Node {
            point,
            id,
            axis,
            left: None,
            right: None,
        });
        let left = self.build_rec(&mut items[..mid], depth + 1);
        let (_, rest) = items.split_at_mut(mid + 1);
        let right = self.build_rec(rest, depth + 1);
        self.nodes[idx].left = left;
        self.nodes[idx].right = right;
        Some(idx)
    }

    /// The `k` nearest neighbours of `query`, ascending by distance.
    pub(crate) fn nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim);
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of current best (distance, id) kept as a sorted vec —
        // k is small in the search scenario.
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        if let Some(root) = self.root {
            self.search(root, query, k, &mut best);
        }
        best
    }

    fn search(&self, idx: usize, query: &[f64], k: usize, best: &mut Vec<Neighbor>) {
        let node = &self.nodes[idx];
        let d = dist(&node.point, query);
        let insert_at = best
            .binary_search_by(|n| n.distance.partial_cmp(&d).expect("finite"))
            .unwrap_or_else(|i| i);
        if insert_at < k {
            best.insert(
                insert_at,
                Neighbor {
                    id: node.id,
                    distance: d,
                },
            );
            best.truncate(k);
        }

        let delta = query[node.axis] - node.point[node.axis];
        let (near, far) = if delta <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if let Some(n) = near {
            self.search(n, query, k, best);
        }
        // Prune the far side unless the splitting plane is closer than the
        // current k-th best.
        let worst = best.last().map(|n| n.distance).unwrap_or(f64::INFINITY);
        if best.len() < k || delta.abs() < worst {
            if let Some(f) = far {
                self.search(f, query, k, best);
            }
        }
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<(u64, Vec<f64>)> {
        // 5x5 lattice with ids row*5+col.
        (0..25u64)
            .map(|i| (i, vec![(i % 5) as f64, (i / 5) as f64]))
            .collect()
    }

    fn brute_nearest(items: &[(u64, Vec<f64>)], q: &[f64], k: usize) -> Vec<u64> {
        let mut v: Vec<(f64, u64)> = items.iter().map(|(id, p)| (dist(p, q), *id)).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn single_nearest_on_lattice() {
        let t = KdTree::build(2, grid_points());
        let n = t.nearest(&[2.2, 3.1], 1);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].id, 3 * 5 + 2);
    }

    #[test]
    fn knn_matches_brute_force() {
        let items: Vec<(u64, Vec<f64>)> = (0..200u64)
            .map(|i| {
                let x = (i as f64 * 0.317).sin() * 10.0;
                let y = (i as f64 * 0.711).cos() * 10.0;
                let z = (i as f64 * 0.173).sin() * (i as f64 * 0.091).cos() * 10.0;
                (i, vec![x, y, z])
            })
            .collect();
        let t = KdTree::build(3, items.clone());
        for q in [[0.0, 0.0, 0.0], [5.0, -3.0, 2.0], [-9.9, 9.9, 0.1]] {
            let got: Vec<u64> = t.nearest(&q, 7).iter().map(|n| n.id).collect();
            let want = brute_nearest(&items, &q, 7);
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn distances_are_sorted() {
        let t = KdTree::build(2, grid_points());
        let n = t.nearest(&[1.7, 1.2], 6);
        assert_eq!(n.len(), 6);
        for w in n.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn k_larger_than_size() {
        let t = KdTree::build(2, grid_points());
        let n = t.nearest(&[0.0, 0.0], 100);
        assert_eq!(n.len(), 25);
        assert!(t.nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(4, Vec::new());
        assert!(t.nearest(&[0.0; 4], 3).is_empty());
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let t = KdTree::build(2, grid_points());
        let n = t.nearest(&[3.0, 4.0], 1);
        assert_eq!(n[0].distance, 0.0);
        assert_eq!(n[0].id, 4 * 5 + 3);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn dimension_mismatch_panics() {
        let _ = KdTree::build(3, vec![(0, vec![1.0, 2.0])]);
    }
}
