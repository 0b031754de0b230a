//! Table 5: inner-edge ratio vs partition count (128/64/32/16), our
//! multilevel partitioning vs random partitioning.

use crate::fmt;
use crate::ExpConfig;
use surfer_graph::generators::social::msn_like;
use surfer_partition::{quality, random_partition, BisectConfig, RecursivePartitioner};

/// One column of Table 5.
#[derive(Debug, Clone, Copy)]
pub struct Table5Col {
    /// Partition count.
    pub partitions: u32,
    /// ier of the multilevel partitioner.
    pub ours: f64,
    /// ier of random partitioning.
    pub random: f64,
}

/// Run the experiment.
pub fn run(cfg: &ExpConfig) -> (Vec<Table5Col>, String) {
    let g = msn_like(cfg.scale, cfg.seed);
    let mut cols = Vec::new();
    for p in [128u32, 64, 32, 16] {
        let p = p.min(g.num_vertices() / 2);
        let kway = RecursivePartitioner::new(BisectConfig { seed: cfg.seed, ..Default::default() })
            .partition(&g, p);
        let ours = quality(&g, &kway.partitioning).inner_edge_ratio;
        let random = quality(&g, &random_partition(g.num_vertices(), p, cfg.seed)).inner_edge_ratio;
        cols.push(Table5Col { partitions: p, ours, random });
    }
    let text = fmt::table(
        "Table 5: inner edge ratio vs number of partitions",
        &["Partitions", "ier ours (%)", "ier random (%)"],
        &cols
            .iter()
            .map(|c| {
                vec![
                    c.partitions.to_string(),
                    format!("{:.1}", c.ours * 100.0),
                    format!("{:.1}", c.random * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (cols, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn monotonicity_and_dominance() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 16, seed: 5 };
        let (cols, text) = run(&cfg);
        assert_eq!(cols.len(), 4);
        // Monotonicity (§4.1): fewer partitions -> higher ier.
        for w in cols.windows(2) {
            assert!(
                w[1].ours >= w[0].ours - 0.02,
                "ier should grow as partitions shrink: {:?}",
                cols
            );
        }
        // Ours dominates random everywhere, by a lot.
        for c in &cols {
            assert!(c.ours > 5.0 * c.random, "{c:?}");
            assert!((c.random - 1.0 / c.partitions as f64).abs() < 0.05, "{c:?}");
        }
        assert!(text.contains("Table 5"));
    }
}
