//! §6.3 "Multi-Iteration Propagation": cascaded propagation vs naive
//! multi-iteration on NR — V_k ratio, response-time and disk-I/O savings.

use crate::fmt;
use crate::Workload;
use surfer_apps::pagerank::PageRankPropagation;
use surfer_core::{cascade::CascadeAnalysis, run_cascaded, OptimizationLevel};

/// Results for one iteration count.
#[derive(Debug, Clone, Copy)]
pub struct CascadePoint {
    /// Total iterations.
    pub iterations: u32,
    /// Naive response seconds.
    pub naive_secs: f64,
    /// Cascaded response seconds.
    pub cascaded_secs: f64,
    /// Naive disk bytes.
    pub naive_disk: u64,
    /// Cascaded disk bytes.
    pub cascaded_disk: u64,
}

/// Run the comparison at several iteration counts.
pub fn run(w: &Workload) -> (Vec<CascadePoint>, String) {
    let surfer = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
    let engine = surfer.propagation();
    let g = w.graph.as_ref();
    let prog = PageRankPropagation { damping: 0.85, n: g.num_vertices() as u64 };
    let analysis = CascadeAnalysis::analyze(surfer.partitioned());

    let mut points = Vec::new();
    for iterations in [3u32, 6] {
        let mut s1 = engine.init_state(&prog);
        let naive = engine.run(&prog, &mut s1, iterations).unwrap();
        let mut s2 = engine.init_state(&prog);
        let (casc, _) = run_cascaded(&engine, &prog, &mut s2, iterations).unwrap();
        assert_eq!(s1, s2, "cascading must not change results");
        points.push(CascadePoint {
            iterations,
            naive_secs: naive.response_time.as_secs_f64(),
            cascaded_secs: casc.response_time.as_secs_f64(),
            naive_disk: naive.disk_bytes(),
            cascaded_disk: casc.disk_bytes(),
        });
    }

    let mut text = format!(
        "\n== Cascaded propagation (NR) ==\nV_k ratio (k>=2): {:.1}%   V_inf ratio: {:.1}%   d_min: {}\n",
        analysis.v_k_ratio(2) * 100.0,
        analysis.v_inf_ratio() * 100.0,
        analysis.d_min,
    );
    text.push_str(&fmt::table(
        "naive vs cascaded multi-iteration propagation",
        &["Iters", "Naive (s)", "Cascaded (s)", "Resp saved", "Naive disk (MB)", "Cascaded disk (MB)", "Disk saved"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.iterations.to_string(),
                    format!("{:.2}", p.naive_secs),
                    format!("{:.2}", p.cascaded_secs),
                    fmt::improvement_pct(p.naive_secs, p.cascaded_secs),
                    fmt::mb(p.naive_disk),
                    fmt::mb(p.cascaded_disk),
                    fmt::improvement_pct(p.naive_disk as f64, p.cascaded_disk as f64),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    (points, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn cascading_saves_disk_never_costs_results() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 5 };
        let w = Workload::prepare(cfg);
        let (points, text) = run(&w);
        for p in &points {
            assert!(
                p.cascaded_disk <= p.naive_disk,
                "cascaded disk should not exceed naive: {p:?}"
            );
        }
        assert!(text.contains("V_k ratio"));
    }
}
