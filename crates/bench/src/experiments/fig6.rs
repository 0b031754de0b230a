//! Figure 6: impact of bandwidth-aware partitioning on the optimized
//! propagation (NR) under uneven topologies — O3 (oblivious layout) vs O4
//! (bandwidth-aware layout), on T2(2,1), T2(4,1), T2(4,2) and T3.

use crate::fmt;
use crate::runner::{run_propagation, AppId};
use crate::Workload;
use crate::experiment_cluster;
use surfer_cluster::Topology;
use surfer_core::OptimizationLevel;

/// One bar pair of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Topology name.
    pub topology: String,
    /// Response seconds without bandwidth awareness (O3).
    pub oblivious_secs: f64,
    /// Response seconds with bandwidth awareness (O4).
    pub aware_secs: f64,
}

/// Run the experiment.
pub fn run(w: &Workload) -> (Vec<Fig6Point>, String) {
    let m = w.cfg.machines;
    let topologies = [
        Topology::t2(2, 1, m),
        Topology::t2(4, 1, m),
        Topology::t2(4, 2, m),
        Topology::t3(m, w.cfg.seed),
    ];
    let mut points = Vec::new();
    for topo in topologies {
        let mut secs = [0.0f64; 2];
        for (i, level) in [OptimizationLevel::O3, OptimizationLevel::O4].iter().enumerate() {
            let cluster = experiment_cluster(topo.clone());
            let surfer = w.surfer(cluster, *level);
            secs[i] = run_propagation(&surfer, AppId::Nr).response_time.as_secs_f64();
        }
        points.push(Fig6Point {
            topology: topo.name(),
            oblivious_secs: secs[0],
            aware_secs: secs[1],
        });
    }
    let text = fmt::table(
        "Figure 6: optimized propagation (NR) with/without bandwidth-aware layout (seconds)",
        &["Topology", "Oblivious (O3)", "Bandwidth aware (O4)", "Improvement"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.topology.clone(),
                    format!("{:.2}", p.oblivious_secs),
                    format!("{:.2}", p.aware_secs),
                    fmt::improvement_pct(p.oblivious_secs, p.aware_secs),
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
    fn bandwidth_awareness_wins_on_uneven_topologies() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 16, seed: 5 };
        let w = Workload::prepare(cfg);
        let (points, _) = run(&w);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.aware_secs <= p.oblivious_secs * 1.02,
                "BA should not lose on {}: {p:?}",
                p.topology
            );
        }
        // And it should clearly win on at least the tree topologies.
        let wins = points.iter().filter(|p| p.aware_secs < p.oblivious_secs * 0.95).count();
        assert!(wins >= 2, "expected clear wins, got {points:?}");
    }
}
