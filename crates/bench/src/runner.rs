//! Uniform application dispatch for the experiments.

use surfer_apps::{
    NetworkRanking, RecommenderSystem, ReverseLinkGraph, TriangleCounting,
    TwoHopFriends, VertexDegreeDistribution,
};
use surfer_cluster::ExecReport;
use surfer_core::Surfer;

/// Iterations used for the multi-iteration apps throughout the harness.
pub const NR_ITERATIONS: u32 = 3;
/// Iterations for the recommender campaign.
pub const RS_ITERATIONS: u32 = 3;
/// Selection seed for sampled apps (TC, TFL) and RS coins.
pub const APP_SEED: u64 = 0x5EED;

/// The six paper applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppId {
    /// Vertex degree distribution.
    Vdd,
    /// Recommender system.
    Rs,
    /// Network ranking (PageRank).
    Nr,
    /// Reverse link graph.
    Rlg,
    /// Triangle counting.
    Tc,
    /// Two-hop friend lists.
    Tfl,
}

impl AppId {
    /// Paper column order of Tables 2-4.
    pub const ALL: [AppId; 6] =
        [AppId::Vdd, AppId::Rs, AppId::Nr, AppId::Rlg, AppId::Tc, AppId::Tfl];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Vdd => "VDD",
            AppId::Rs => "RS",
            AppId::Nr => "NR",
            AppId::Rlg => "RLG",
            AppId::Tc => "TC",
            AppId::Tfl => "TFL",
        }
    }
}

/// Run one application with the propagation primitive, discarding the
/// output (experiments only consume metrics; correctness is covered by the
/// test suite).
pub fn run_propagation(surfer: &Surfer, app: AppId) -> ExecReport {
    match app {
        AppId::Vdd => surfer.run(&VertexDegreeDistribution).unwrap().report,
        AppId::Rs => surfer.run(&RecommenderSystem::new(RS_ITERATIONS, APP_SEED)).unwrap().report,
        AppId::Nr => surfer.run(&NetworkRanking::new(NR_ITERATIONS)).unwrap().report,
        AppId::Rlg => surfer.run(&ReverseLinkGraph).unwrap().report,
        AppId::Tc => surfer.run(&TriangleCounting::new(APP_SEED)).unwrap().report,
        AppId::Tfl => surfer.run(&TwoHopFriends::new(APP_SEED)).unwrap().report,
    }
}

/// Run one application with the MapReduce primitive.
pub fn run_mapreduce(surfer: &Surfer, app: AppId) -> ExecReport {
    match app {
        AppId::Vdd => surfer.run_mapreduce(&VertexDegreeDistribution).unwrap().report,
        AppId::Rs => surfer.run_mapreduce(&RecommenderSystem::new(RS_ITERATIONS, APP_SEED)).unwrap().report,
        AppId::Nr => surfer.run_mapreduce(&NetworkRanking::new(NR_ITERATIONS)).unwrap().report,
        AppId::Rlg => surfer.run_mapreduce(&ReverseLinkGraph).unwrap().report,
        AppId::Tc => surfer.run_mapreduce(&TriangleCounting::new(APP_SEED)).unwrap().report,
        AppId::Tfl => surfer.run_mapreduce(&TwoHopFriends::new(APP_SEED)).unwrap().report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpConfig, Workload};
    use surfer_core::OptimizationLevel;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn every_app_runs_on_both_primitives() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 4, partitions: 4, seed: 3 };
        let w = Workload::prepare(cfg);
        let s = w.surfer(w.t1_cluster(), OptimizationLevel::O4);
        for app in AppId::ALL {
            let p = run_propagation(&s, app);
            let m = run_mapreduce(&s, app);
            assert!(p.tasks_completed > 0, "{}", app.name());
            assert!(m.tasks_completed > 0, "{}", app.name());
        }
    }
}
