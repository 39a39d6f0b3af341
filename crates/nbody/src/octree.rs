//! Bucketed octrees over Morton-sorted particles.
//!
//! "We need to arrange the data in coherent chunks organized into a
//! spatial octree, not necessarily balanced. The octree would be computed
//! from a space filling curve index. If we group together and store an
//! order of a few thousand particles per bucket we can reduce the number
//! of data table rows" (§2.3). The tree here is exactly that: leaves are
//! contiguous Morton-key ranges holding up to `bucket_size` particles;
//! internal nodes are octants.

use crate::particle::Particle;
use sqlarray_storage::zorder::morton3_encode;

/// Depth of the Morton grid used for keys (2²¹ cells per axis).
const KEY_BITS: u32 = sqlarray_storage::zorder::MORTON3_BITS;

/// Morton key of a position in the unit box.
pub(crate) fn position_key(pos: [f64; 3]) -> u64 {
    let scale = (1u64 << KEY_BITS) as f64;
    let clamp = |v: f64| ((v.rem_euclid(1.0)) * scale).min(scale - 1.0) as u64;
    morton3_encode(clamp(pos[0]), clamp(pos[1]), clamp(pos[2]))
}

/// A node of the octree.
#[derive(Debug)]
pub enum OctreeNode {
    /// Leaf: a slice `[start, end)` of the Morton-sorted particle array.
    Leaf {
        /// First particle index.
        start: usize,
        /// One past the last particle index.
        end: usize,
    },
    /// Internal node with up to eight children (octant order).
    Internal {
        /// Children in Morton octant order; `None` for empty octants.
        children: Box<[Option<OctreeNode>; 8]>,
        /// Total particles below this node.
        count: usize,
    },
}

/// A bucketed octree; owns the Morton-sorted particle array.
#[derive(Debug)]
pub struct Octree {
    particles: Vec<Particle>,
    root: OctreeNode,
    bucket_size: usize,
}

impl Octree {
    /// Builds the tree: sorts particles by Morton key and splits octants
    /// until buckets are at most `bucket_size`.
    pub fn build(mut particles: Vec<Particle>, bucket_size: usize) -> Octree {
        assert!(bucket_size >= 1);
        let mut keyed: Vec<(u64, Particle)> = particles
            .drain(..)
            .map(|p| (position_key(p.pos), p))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let keys: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
        let particles: Vec<Particle> = keyed.into_iter().map(|(_, p)| p).collect();
        let root = Self::build_node(&keys, 0, particles.len(), 0, bucket_size);
        Octree {
            particles,
            root,
            bucket_size,
        }
    }

    fn build_node(keys: &[u64], start: usize, end: usize, depth: u32, bucket: usize) -> OctreeNode {
        if end - start <= bucket || depth >= KEY_BITS {
            return OctreeNode::Leaf { start, end };
        }
        // Octant of a key at this depth: 3 bits below the already-fixed
        // prefix.
        let shift = 3 * (KEY_BITS - 1 - depth);
        let octant_of = |k: u64| ((k >> shift) & 0b111) as usize;
        let mut children: [Option<OctreeNode>; 8] = Default::default();
        let mut cursor = start;
        for (oct, child) in children.iter_mut().enumerate() {
            let begin = cursor;
            while cursor < end && octant_of(keys[cursor]) == oct {
                cursor += 1;
            }
            if cursor > begin {
                *child = Some(Self::build_node(keys, begin, cursor, depth + 1, bucket));
            }
        }
        debug_assert_eq!(cursor, end);
        OctreeNode::Internal {
            children: Box::new(children),
            count: end - start,
        }
    }

    /// All particles, in Morton order.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Total particle count.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True when the tree holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Number of leaves (≈ data-table rows in the §2.3 bucket design).
    pub fn leaf_count(&self) -> usize {
        fn walk(n: &OctreeNode) -> usize {
            match n {
                OctreeNode::Leaf { .. } => 1,
                OctreeNode::Internal { children, .. } => children.iter().flatten().map(walk).sum(),
            }
        }
        walk(&self.root)
    }

    /// Particles inside a cone with apex `apex`, unit axis `dir`, and
    /// half-angle `half_angle` (radians), out to `max_depth` — the
    /// light-cone primitive of §2.3 ("a spatial index that can retrieve
    /// points from within a cone").
    pub(crate) fn within_cone(
        &self,
        apex: [f64; 3],
        dir: [f64; 3],
        half_angle: f64,
        max_depth: f64,
    ) -> Vec<&Particle> {
        let cos_limit = half_angle.cos();
        self.particles
            .iter()
            .filter(|p| {
                let mut d = [0.0f64; 3];
                for k in 0..3 {
                    // Minimum-image displacement.
                    let mut delta = p.pos[k] - apex[k];
                    if delta > 0.5 {
                        delta -= 1.0;
                    }
                    if delta < -0.5 {
                        delta += 1.0;
                    }
                    d[k] = delta;
                }
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if r == 0.0 || r > max_depth {
                    return false;
                }
                let cosine = (d[0] * dir[0] + d[1] * dir[1] + d[2] * dir[2]) / r;
                cosine >= cos_limit
            })
            .collect()
    }

    /// A decimated particle sample for visualization: every leaf
    /// contributes ⌈n/factor⌉ representatives, each weighted by the number
    /// of original particles it stands for ("each sub-sampled particle
    /// would get a different weight according to the number of original
    /// particles in its region of attraction", §2.3).
    pub fn decimate(&self, factor: usize) -> Vec<(Particle, f64)> {
        assert!(factor >= 1);
        let mut out = Vec::new();
        fn walk(tree: &Octree, n: &OctreeNode, factor: usize, out: &mut Vec<(Particle, f64)>) {
            match n {
                OctreeNode::Leaf { start, end } => {
                    let count = end - start;
                    if count == 0 {
                        return;
                    }
                    let reps = count.div_ceil(factor);
                    for r in 0..reps {
                        let lo = start + r * factor;
                        let hi = (lo + factor).min(*end);
                        let weight = (hi - lo) as f64;
                        out.push((tree.particles[lo], weight));
                    }
                }
                OctreeNode::Internal { children, .. } => {
                    for c in children.iter().flatten() {
                        walk(tree, c, factor, out);
                    }
                }
            }
        }
        walk(self, &self.root, factor, &mut out);
        out
    }

    /// The configured bucket size.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }
}

#[cfg(test)]
impl Octree {
    /// Maximum leaf occupancy.
    fn max_bucket_fill(&self) -> usize {
        fn walk(n: &OctreeNode) -> usize {
            match n {
                OctreeNode::Leaf { start, end } => end - start,
                OctreeNode::Internal { children, .. } => {
                    children.iter().flatten().map(walk).max().unwrap_or(0)
                }
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::SynthSim;

    fn tree() -> Octree {
        let sim = SynthSim::default();
        Octree::build(sim.snapshot(0).particles, 64)
    }

    #[test]
    fn keys_are_sorted_and_buckets_bounded() {
        let t = tree();
        let keys: Vec<u64> = t.particles().iter().map(|p| position_key(p.pos)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.max_bucket_fill() <= 64);
        assert!(t.leaf_count() >= t.len() / 64);
    }

    #[test]
    fn all_particles_preserved() {
        let sim = SynthSim::default();
        let snap = sim.snapshot(0);
        let t = Octree::build(snap.particles.clone(), 32);
        assert_eq!(t.len(), snap.particles.len());
        let mut ids: Vec<i64> = t.particles().iter().map(|p| p.id).collect();
        ids.sort_unstable();
        let mut want: Vec<i64> = snap.particles.iter().map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
    }

    #[test]
    fn cone_query_respects_angle_and_depth() {
        let t = tree();
        let apex = [0.5, 0.5, 0.5];
        let dir = [1.0, 0.0, 0.0];
        let hits = t.within_cone(apex, dir, 0.3, 0.4);
        for p in &hits {
            let mut d = [0.0f64; 3];
            for k in 0..3 {
                let mut delta = p.pos[k] - apex[k];
                if delta > 0.5 {
                    delta -= 1.0;
                }
                if delta < -0.5 {
                    delta += 1.0;
                }
                d[k] = delta;
            }
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!(r <= 0.4);
            assert!(d[0] / r >= 0.3f64.cos() - 1e-12);
        }
        // A full-sky "cone" out to the half-box catches everything nearby.
        let all = t.within_cone(apex, dir, std::f64::consts::PI, 0.9);
        assert!(all.len() > hits.len());
    }

    #[test]
    fn decimation_conserves_weight() {
        let t = tree();
        for factor in [1usize, 4, 16] {
            let sample = t.decimate(factor);
            let total: f64 = sample.iter().map(|&(_, w)| w).sum();
            assert_eq!(total as usize, t.len(), "factor {factor}");
            if factor == 1 {
                assert_eq!(sample.len(), t.len());
            } else {
                assert!(sample.len() < t.len());
            }
        }
    }

    #[test]
    fn bucket_one_splits_to_singletons() {
        let sim = SynthSim {
            halos: 1,
            halo_particles: 10,
            background: 10,
            ..SynthSim::default()
        };
        let t = Octree::build(sim.snapshot(0).particles, 1);
        // Buckets can exceed 1 only on exact key collisions (depth cap).
        assert!(t.max_bucket_fill() <= 2);
    }

    #[test]
    fn empty_tree_is_fine() {
        let t = Octree::build(Vec::new(), 8);
        assert!(t.is_empty());
        assert_eq!(t.leaf_count(), 1);
    }
}
