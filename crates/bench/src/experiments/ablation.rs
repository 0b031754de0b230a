//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Partition size (principle P2, §4.1)** — sweep the partition count at
//!    fixed machine memory. Few partitions → partitions exceed memory →
//!    random-I/O penalty; many partitions → monotonically more
//!    cross-partition edges. The paper picked 2 GB / 64 partitions at this
//!    knee (Table 5 discussion).
//! 2. **Graph locality** — the bandwidth-aware layout only has something to
//!    exploit when cross-partition traffic is hierarchically concentrated
//!    (proximity, §4.1). Regenerate the graph with uniform stitching
//!    (`locality = 0`) and the BA advantage on a tree topology collapses.

use crate::fmt;
use crate::runner::{run_propagation, AppId};
use crate::{experiment_cluster, ExpConfig};
use std::sync::Arc;
use surfer_cluster::Topology;
use surfer_core::{OptimizationLevel, Surfer};
use surfer_graph::generators::social::{msn_like, stitched_small_worlds, SocialGraphConfig};
use surfer_partition::{place, quality, BisectConfig, RecursivePartitioner};

/// One partition-size sweep point.
#[derive(Debug, Clone, Copy)]
pub struct PsizePoint {
    /// Partition count.
    pub partitions: u32,
    /// Whether partitions fit in machine memory.
    pub fits_memory: bool,
    /// Inner edge ratio.
    pub ier: f64,
    /// NR response seconds.
    pub secs: f64,
}

/// Partition-size ablation.
pub fn run_psize(cfg: &ExpConfig) -> (Vec<PsizePoint>, String) {
    let g = Arc::new(msn_like(cfg.scale, cfg.seed));
    let mut points = Vec::new();
    for p in [2u32, 4, 8, 16, 32, 64, 128] {
        let kway = RecursivePartitioner::new(BisectConfig { seed: cfg.seed, ..Default::default() })
            .partition(&g, p);
        let ier = quality(&g, &kway.partitioning).inner_edge_ratio;
        let cluster = experiment_cluster(Topology::t1(cfg.machines));
        let placed = place(
            kway.partitioning,
            kway.sketch,
            cluster.topology(),
            OptimizationLevel::O4.placement(),
            cfg.seed,
        );
        let surfer = Surfer::builder(cluster)
            .optimization(OptimizationLevel::O4)
            .load_placed(Arc::clone(&g), placed);
        let fits = surfer
            .partitioned()
            .partitions()
            .all(|pid| surfer.partitioned().fits_in_memory(pid, surfer.cluster().spec().memory_bytes));
        let secs = run_propagation(&surfer, AppId::Nr).response_time.as_secs_f64();
        points.push(PsizePoint { partitions: p, fits_memory: fits, ier, secs });
    }
    let text = fmt::table(
        "Ablation: partition size (NR on T1; P2 of §4.1 — memory fit vs cross edges)",
        &["Partitions", "Fits memory", "ier (%)", "Response (s)"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.partitions.to_string(),
                    if p.fits_memory { "yes" } else { "NO" }.to_string(),
                    format!("{:.1}", p.ier * 100.0),
                    format!("{:.2}", p.secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (points, text)
}

/// Locality-ablation result.
#[derive(Debug, Clone, Copy)]
pub struct LocalityPoint {
    /// Generator locality.
    pub locality: f64,
    /// NR response with oblivious layout (O3).
    pub oblivious_secs: f64,
    /// NR response with bandwidth-aware layout (O4).
    pub aware_secs: f64,
}

/// Graph-locality ablation on `T2(2,1)`.
pub fn run_locality(cfg: &ExpConfig) -> (Vec<LocalityPoint>, String) {
    let mut points = Vec::new();
    for locality in [0.0, 0.75] {
        let mut gcfg = SocialGraphConfig::new(16, 9, cfg.seed);
        gcfg.locality = locality;
        let g = Arc::new(stitched_small_worlds(&gcfg));
        let kway = RecursivePartitioner::new(BisectConfig { seed: cfg.seed, ..Default::default() })
            .partition(&g, 16);
        let mut secs = [0.0f64; 2];
        for (i, level) in [OptimizationLevel::O3, OptimizationLevel::O4].iter().enumerate() {
            let cluster = experiment_cluster(Topology::t2(2, 1, cfg.machines.min(16)));
            let placed = place(
                kway.partitioning.clone(),
                kway.sketch.clone(),
                cluster.topology(),
                level.placement(),
                cfg.seed,
            );
            let surfer =
                Surfer::builder(cluster).optimization(*level).load_placed(Arc::clone(&g), placed);
            secs[i] = run_propagation(&surfer, AppId::Nr).response_time.as_secs_f64();
        }
        points.push(LocalityPoint { locality, oblivious_secs: secs[0], aware_secs: secs[1] });
    }
    let text = fmt::table(
        "Ablation: graph locality (NR on T2(2,1) — BA needs hierarchical cross-traffic)",
        &["Locality", "Oblivious (O3)", "Aware (O4)", "BA improvement"],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.locality),
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
    use surfer_graph::generators::social::MsnScale;

    fn cfg() -> ExpConfig {
        ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 5 }
    }

    #[test]
    fn psize_sweep_shows_the_monotone_ier_tradeoff() {
        let _obs = crate::obs_guard::shared();
        let (points, text) = run_psize(&cfg());
        assert_eq!(points.len(), 7);
        // ier decreases monotonically with partition count (§4.1).
        for w in points.windows(2) {
            assert!(w[1].ier <= w[0].ier + 0.02, "ier not decreasing: {points:?}");
        }
        assert!(text.contains("Ablation"));
    }

    #[test]
    fn ba_gains_vanish_without_locality() {
        let _obs = crate::obs_guard::shared();
        let (points, _) = run_locality(&cfg());
        let gain = |p: &LocalityPoint| (p.oblivious_secs - p.aware_secs) / p.oblivious_secs;
        let uniform = gain(&points[0]);
        let local = gain(&points[1]);
        assert!(
            local > uniform + 0.05,
            "locality should enable the BA win: uniform {uniform:.3} vs local {local:.3}"
        );
    }
}
