//! DMESSI and DMESSI-SW-BSF (Section 5, "Algorithms").
//!
//! DMESSI models the naive scale-out of a state-of-the-art single-node
//! index: chop the data into equal disjoint chunks, run an independent
//! MESSI-style index per node, broadcast every query to every node, and
//! take the minimum of the per-node answers. Its weakness — the reason
//! the paper builds Odyssey — is that a node holding series similar to a
//! query gets a tight BSF and prunes well, while all other nodes grind
//! with loose bounds; nothing balances that load.
//!
//! DMESSI-SW-BSF adds exactly one Odyssey ingredient: the system-wide
//! BSF-sharing channel, letting the lucky node's bound prune everyone.

use odyssey_cluster::{ClusterConfig, Replication, SchedulerKind};

/// DMESSI: disjoint equal chunks, every node answers every query, no
/// coordination beyond the final merge.
pub fn dmessi_config(n_nodes: usize) -> ClusterConfig {
    ClusterConfig::new(n_nodes)
        .with_replication(Replication::EquallySplit)
        .with_scheduler(SchedulerKind::Static)
        .with_work_stealing(false)
        .with_bsf_sharing(false)
}

/// DMESSI-SW-BSF: DMESSI plus the system-wide BSF-sharing channel.
pub fn dmessi_sw_bsf_config(n_nodes: usize) -> ClusterConfig {
    dmessi_config(n_nodes).with_bsf_sharing(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_cluster::OdysseyCluster;
    use odyssey_core::search::answer::Answer;
    use odyssey_workloads::generator::random_walk;
    use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};

    #[test]
    fn dmessi_is_exact() {
        let data = random_walk(900, 64, 3);
        let w = QueryWorkload::generate(
            &data,
            6,
            WorkloadKind::Mixed {
                hard_fraction: 0.5,
                noise: 0.05,
            },
            5,
        );
        for cfg in [dmessi_config(4), dmessi_sw_bsf_config(4)] {
            let cluster = OdysseyCluster::build(&data, cfg);
            let report = cluster.answer_batch(&w.queries);
            for qi in 0..w.len() {
                let mut want = Answer::none();
                for i in 0..data.num_series() {
                    let d = odyssey_core::distance::euclidean_sq(w.query(qi), data.series(i));
                    if d < want.distance_sq {
                        want = Answer::from_sq(d, Some(i as u32));
                    }
                }
                assert!(
                    (report.answers[qi].distance - want.distance).abs() < 1e-9,
                    "query {qi}"
                );
            }
        }
    }

    #[test]
    fn sw_bsf_reduces_work_on_easy_queries() {
        // With BSF sharing, the node holding the near-identical series
        // shares a tight bound and the other nodes prune; total work
        // must fall below the share-nothing run. The easy queries' bound
        // travels as that node's approximate answer (a seed, not a
        // broadcast); on the hard half, searching beats every seed, and
        // those improvements are broadcast.
        let data = random_walk(4000, 64, 17);
        let w = QueryWorkload::generate(
            &data,
            8,
            WorkloadKind::Mixed {
                hard_fraction: 0.5,
                noise: 0.01,
            },
            19,
        );
        let plain = OdysseyCluster::build(&data, dmessi_config(4)).answer_batch(&w.queries);
        let shared =
            OdysseyCluster::build(&data, dmessi_sw_bsf_config(4)).answer_batch(&w.queries);
        assert!(
            shared.total_units() < plain.total_units(),
            "sharing {} vs plain {}",
            shared.total_units(),
            plain.total_units()
        );
        assert!(shared.bsf_broadcasts > 0);
    }

    #[test]
    fn dmessi_configs_differ_only_in_bsf_sharing() {
        let a = dmessi_config(8);
        let b = dmessi_sw_bsf_config(8);
        assert!(!a.bsf_sharing && b.bsf_sharing);
        assert!(!a.work_stealing && !b.work_stealing);
        assert_eq!(a.replication, b.replication);
    }
}
