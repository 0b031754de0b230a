//! Figure 11: scalability — NR response time as machines scale 8 -> 32 with
//! the synthetic graph growing proportionally (weak scaling).

use crate::fmt;
use crate::runner::{run_propagation, AppId};
use crate::experiment_cluster;
use surfer_cluster::Topology;
use surfer_core::{OptimizationLevel, Surfer};
use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

/// One scaling point.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Point {
    /// Machines used.
    pub machines: u16,
    /// Graph vertex count.
    pub vertices: u32,
    /// NR response seconds.
    pub secs: f64,
}

/// Run the weak-scaling sweep.
pub fn run(seed: u64) -> (Vec<Fig11Point>, String) {
    let mut points = Vec::new();
    for machines in [8u16, 16, 24, 32] {
        // One community of 2^10 vertices per machine: the load per machine
        // stays constant as the cluster grows.
        let cfg = SocialGraphConfig::new(machines as u32, 10, seed);
        let g = stitched_small_worlds(&cfg);
        let partitions = (machines as u32).next_power_of_two();
        let cluster = experiment_cluster(Topology::t1(machines));
        let surfer = Surfer::builder(cluster)
            .partitions(partitions)
            .optimization(OptimizationLevel::O4)
            .seed(seed)
            .load(&g);
        let report = run_propagation(&surfer, AppId::Nr);
        points.push(Fig11Point {
            machines,
            vertices: g.num_vertices(),
            secs: report.response_time.as_secs_f64(),
        });
    }
    let text = fmt::table(
        "Figure 11: P-Surfer weak scaling (NR; graph grows with the cluster)",
        &["Machines", "Vertices", "Response (s)"],
        &points
            .iter()
            .map(|p| vec![p.machines.to_string(), p.vertices.to_string(), format!("{:.2}", p.secs)])
            .collect::<Vec<_>>(),
    );
    (points, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_stays_roughly_flat() {
        let _obs = crate::obs_guard::shared();
        let (points, _) = run(5);
        assert_eq!(points.len(), 4);
        // Weak scaling: total work grows 4x; response must stay within 3x
        // of the 8-machine point (straggler variance across the differently
        // sized graphs; the paper reports slightly decreasing response).
        let first = points[0].secs;
        let last = points[3].secs;
        assert!(last < 3.0 * first, "poor scalability: {points:?}");
        // Graph really grew.
        assert!(points[3].vertices > 3 * points[0].vertices);
    }
}
