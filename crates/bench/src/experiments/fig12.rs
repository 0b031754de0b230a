//! Figure 12: NR, MapReduce vs P-Surfer, with the machine count varied
//! (8/16/24/32) on a fixed graph.

use crate::fmt;
use crate::runner::{run_mapreduce, run_propagation, AppId};
use crate::Workload;
use crate::experiment_cluster;
use surfer_cluster::Topology;
use surfer_core::OptimizationLevel;

/// One cluster-size point.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Point {
    /// Machines used.
    pub machines: u16,
    /// MapReduce response seconds.
    pub mr_secs: f64,
    /// Propagation response seconds.
    pub prop_secs: f64,
}

/// Run the sweep.
pub fn run(w: &Workload) -> (Vec<Fig12Point>, String) {
    let mut points = Vec::new();
    for machines in [8u16, 16, 24, 32] {
        let cluster = experiment_cluster(Topology::t1(machines));
        let surfer = w.surfer(cluster, OptimizationLevel::O4);
        let mr = run_mapreduce(&surfer, AppId::Nr);
        let prop = run_propagation(&surfer, AppId::Nr);
        points.push(Fig12Point {
            machines,
            mr_secs: mr.response_time.as_secs_f64(),
            prop_secs: prop.response_time.as_secs_f64(),
        });
    }
    let text = fmt::table(
        "Figure 12: NR — MapReduce vs P-Surfer across cluster sizes (seconds)",
        &["Machines", "MapReduce", "P-Surfer", "Speedup"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.machines.to_string(),
                    format!("{:.2}", p.mr_secs),
                    format!("{:.2}", p.prop_secs),
                    fmt::speedup(p.mr_secs, p.prop_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (points, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn propagation_wins_at_every_cluster_size() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 32, partitions: 32, seed: 5 };
        let w = Workload::prepare(cfg);
        let (points, _) = run(&w);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.prop_secs < p.mr_secs,
                "propagation should win at {} machines: {p:?}",
                p.machines
            );
        }
    }
}
