//! Table 1: elapsed time of distributed partitioning, ParMetis-style
//! random placement vs bandwidth-aware, on T1 / T2(2,1) / T2(4,1) /
//! T2(4,2) / T3.

use crate::fmt;
use crate::{paper_topologies, Workload};
use crate::experiment_cluster;
use surfer_core::OptimizationLevel;
use surfer_partition::{simulate_partitioning, PartitioningCostModel};

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Topology name.
    pub topology: String,
    /// Baseline elapsed seconds.
    pub parmetis_secs: f64,
    /// Bandwidth-aware elapsed seconds.
    pub ba_secs: f64,
}

/// Run the experiment.
pub fn run(w: &Workload) -> (Vec<Table1Row>, String) {
    let model = PartitioningCostModel::default();
    let mut rows = Vec::new();
    for topo in paper_topologies(w.cfg.machines, w.cfg.seed) {
        let cluster = experiment_cluster(topo.clone());
        let pm = w.placed(&topo, OptimizationLevel::O1);
        let ba = w.placed(&topo, OptimizationLevel::O2);
        let r_pm = simulate_partitioning(&cluster, &pm, &w.graph, &model);
        let r_ba = simulate_partitioning(&cluster, &ba, &w.graph, &model);
        rows.push(Table1Row {
            topology: topo.name(),
            parmetis_secs: r_pm.response_time.as_secs_f64(),
            ba_secs: r_ba.response_time.as_secs_f64(),
        });
    }
    let text = fmt::table(
        "Table 1: elapsed time of partitioning on different topologies (seconds)",
        &["Topology", "ParMetis", "Bandwidth aware", "Improvement"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.topology.clone(),
                    format!("{:.1}", r.parmetis_secs),
                    format!("{:.1}", r.ba_secs),
                    fmt::improvement_pct(r.parmetis_secs, r.ba_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (rows, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn shape_matches_paper() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 16, seed: 5 };
        let w = Workload::prepare(cfg);
        let (rows, text) = run(&w);
        assert_eq!(rows.len(), 5);
        // T1: both identical-ish; uneven topologies: BA wins.
        let t1 = &rows[0];
        assert!((t1.parmetis_secs - t1.ba_secs).abs() / t1.parmetis_secs < 0.15, "{t1:?}");
        for r in &rows[1..4] {
            assert!(r.ba_secs < r.parmetis_secs, "BA should win on {}: {r:?}", r.topology);
        }
        // T3: with a strict half/half LOW/HIGH cluster and equal-size machine
        // halves, every level's makespan is LOW-bound for both policies, so
        // BA ties on *partitioning* time (it still wins on processing,
        // Fig. 6). Documented in EXPERIMENTS.md as a model divergence.
        let t3 = &rows[4];
        assert!(t3.ba_secs <= t3.parmetis_secs * 1.15, "T3 should stay close: {t3:?}");
        assert!(text.contains("Table 1"));
    }
}
