//! Figure 9: impact of the simulated cross-pod delay factor (2x .. 128x) on
//! NR over T2(2,1), bandwidth-aware vs oblivious layout.

use crate::fmt;
use crate::runner::{run_propagation, AppId};
use crate::Workload;
use crate::experiment_cluster;
use surfer_cluster::Topology;
use surfer_core::OptimizationLevel;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Point {
    /// Cross-pod delay factor.
    pub delay: f64,
    /// Oblivious-layout response seconds.
    pub oblivious_secs: f64,
    /// Bandwidth-aware response seconds.
    pub aware_secs: f64,
}

/// Run the sweep.
pub fn run(w: &Workload) -> (Vec<Fig9Point>, String) {
    let mut points = Vec::new();
    for delay in [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
        let topo = Topology::t2_with_delay(2, 1, w.cfg.machines, delay);
        let mut secs = [0.0f64; 2];
        for (i, level) in [OptimizationLevel::O3, OptimizationLevel::O4].iter().enumerate() {
            let cluster = experiment_cluster(topo.clone());
            let surfer = w.surfer(cluster, *level);
            secs[i] = run_propagation(&surfer, AppId::Nr).response_time.as_secs_f64();
        }
        points.push(Fig9Point { delay, oblivious_secs: secs[0], aware_secs: secs[1] });
    }
    let text = fmt::table(
        "Figure 9: NR on T2(2,1), cross-pod delay factor swept (seconds)",
        &["Delay", "Oblivious", "Bandwidth aware", "Improvement"],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{}x", p.delay),
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
    fn gap_grows_with_delay() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 5 };
        let w = Workload::prepare(cfg);
        let (points, _) = run(&w);
        assert_eq!(points.len(), 7);
        let gain =
            |p: &Fig9Point| (p.oblivious_secs - p.aware_secs) / p.oblivious_secs;
        // Paper: "As the simulated delay increases, the performance
        // improvement ... becomes more significant."
        assert!(
            gain(points.last().unwrap()) > gain(points.first().unwrap()),
            "improvement should grow with delay: {points:?}"
        );
    }
}
