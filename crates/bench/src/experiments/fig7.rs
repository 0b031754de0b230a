//! Figure 7: MapReduce vs P-Surfer on the six applications (T1):
//! (a) response time, (b) network traffic.

use crate::fmt;
use crate::runner::{run_mapreduce, run_propagation, AppId};
use crate::Workload;
use surfer_core::OptimizationLevel;

/// One app's bar pair.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Application.
    pub app: &'static str,
    /// MapReduce response seconds.
    pub mr_secs: f64,
    /// Propagation response seconds.
    pub prop_secs: f64,
    /// MapReduce network bytes.
    pub mr_net: u64,
    /// Propagation network bytes.
    pub prop_net: u64,
}

/// Run the experiment.
pub fn run(w: &Workload) -> (Vec<Fig7Point>, String) {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let mut points = Vec::new();
    for app in AppId::ALL {
        let mr = run_mapreduce(&surfer, app);
        let prop = run_propagation(&surfer, app);
        points.push(Fig7Point {
            app: app.name(),
            mr_secs: mr.response_time.as_secs_f64(),
            prop_secs: prop.response_time.as_secs_f64(),
            mr_net: mr.network_bytes,
            prop_net: prop.network_bytes,
        });
    }
    let text = fmt::table(
        "Figure 7: MapReduce vs P-Surfer on T1 — response time (s) and network traffic (MB)",
        &["App", "MR resp", "Prop resp", "Speedup", "MR net", "Prop net", "Net saved"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.app.to_string(),
                    format!("{:.2}", p.mr_secs),
                    format!("{:.2}", p.prop_secs),
                    fmt::speedup(p.mr_secs, p.prop_secs),
                    fmt::mb(p.mr_net),
                    fmt::mb(p.prop_net),
                    fmt::improvement_pct(p.mr_net as f64, p.prop_net as f64),
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
    fn propagation_wins_except_vdd() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 5 };
        let w = Workload::prepare(cfg);
        let (points, _) = run(&w);
        for p in &points {
            if p.app == "VDD" {
                // §6.4: VDD ties (propagation emulates MapReduce).
                let ratio = p.mr_secs / p.prop_secs;
                assert!((0.4..=2.5).contains(&ratio), "VDD should tie: {p:?}");
            } else {
                assert!(
                    p.prop_secs < p.mr_secs,
                    "{}: propagation {} !< mapreduce {}",
                    p.app,
                    p.prop_secs,
                    p.mr_secs
                );
                assert!(p.prop_net < p.mr_net, "{}: network should shrink: {p:?}", p.app);
            }
        }
    }
}
