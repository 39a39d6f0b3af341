//! Merger-history linking.
//!
//! "These FOF halos need to be linked up between the different time steps
//! to determine the so called merger history. This can be best done by
//! comparing the particle labels in the halos at different time steps."
//! (§2.3)

use crate::fof::Halo;
use std::collections::HashMap;

/// A link between a halo at step `t` and one at step `t+1`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergerLink {
    /// Halo index in the earlier snapshot's halo list.
    pub from: usize,
    /// Halo index in the later snapshot's halo list.
    pub to: usize,
    /// Number of shared particle ids.
    pub shared: usize,
    /// Shared fraction of the progenitor's members.
    pub fraction: f64,
}

/// Links two halo catalogs by shared particle ids: each progenitor points
/// to the descendant holding the largest share of its members (above
/// `min_fraction`).
pub fn link_catalogs(earlier: &[Halo], later: &[Halo], min_fraction: f64) -> Vec<MergerLink> {
    // Map particle id -> descendant halo.
    let mut owner: HashMap<i64, usize> = HashMap::new();
    for (j, h) in later.iter().enumerate() {
        for &id in &h.members {
            owner.insert(id, j);
        }
    }
    let mut links = Vec::new();
    for (i, h) in earlier.iter().enumerate() {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for &id in &h.members {
            if let Some(&j) = owner.get(&id) {
                *counts.entry(j).or_insert(0) += 1;
            }
        }
        if let Some((&j, &shared)) = counts.iter().max_by_key(|&(_, &c)| c) {
            let fraction = shared as f64 / h.size() as f64;
            if fraction >= min_fraction {
                links.push(MergerLink {
                    from: i,
                    to: j,
                    shared,
                    fraction,
                });
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fof::friends_of_friends;
    use crate::particle::SynthSim;

    fn halo(ids: &[i64]) -> Halo {
        Halo {
            members: ids.to_vec(),
            center: [0.5; 3],
            velocity: [0.0; 3],
        }
    }

    #[test]
    fn identity_linking() {
        let a = vec![halo(&[1, 2, 3]), halo(&[10, 11, 12, 13])];
        let links = link_catalogs(&a, &a, 0.5);
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|l| l.from == l.to && l.fraction == 1.0));
    }

    #[test]
    fn merger_maps_two_progenitors_to_one_descendant() {
        let earlier = vec![halo(&[1, 2, 3]), halo(&[4, 5, 6])];
        let later = vec![halo(&[1, 2, 3, 4, 5, 6, 7])];
        let links = link_catalogs(&earlier, &later, 0.5);
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|l| l.to == 0));
    }

    #[test]
    fn min_fraction_cuts_weak_links() {
        let earlier = vec![halo(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])];
        let later = vec![halo(&[1, 2, 50, 51, 52])]; // only 20 % shared
        assert!(link_catalogs(&earlier, &later, 0.5).is_empty());
        assert_eq!(link_catalogs(&earlier, &later, 0.1).len(), 1);
    }

    #[test]
    fn synthetic_halos_link_across_snapshots() {
        let sim = SynthSim {
            halos: 5,
            halo_particles: 80,
            background: 150,
            halo_radius: 0.008,
            ..SynthSim::default()
        };
        let h0 = friends_of_friends(&sim.snapshot(0).particles, 0.02, 20);
        let h1 = friends_of_friends(&sim.snapshot(1).particles, 0.02, 20);
        let links = link_catalogs(&h0, &h1, 0.5);
        // The generator drifts halos coherently: almost every halo should
        // find its descendant with a high shared fraction.
        assert!(
            links.len() + 1 >= h0.len(),
            "{} links for {} halos",
            links.len(),
            h0.len()
        );
        assert!(links.iter().all(|l| l.fraction > 0.6));
    }
}
