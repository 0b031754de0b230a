//! Tables 2 & 3: the six applications at optimization levels O1-O4 on T1 —
//! response time + total machine time (Table 2), network + disk I/O
//! (Table 3).

use crate::fmt;
use crate::runner::{run_propagation, AppId};
use crate::Workload;
use surfer_cluster::ExecReport;
use surfer_core::OptimizationLevel;

/// All 24 cells (app x level).
#[derive(Debug)]
pub struct Table23Results {
    /// `reports[level][app]` in [`OptimizationLevel::ALL`] x [`AppId::ALL`]
    /// order.
    pub reports: Vec<Vec<ExecReport>>,
}

impl Table23Results {
    /// Report for a level/app pair.
    pub fn get(&self, level: OptimizationLevel, app: AppId) -> &ExecReport {
        let li = OptimizationLevel::ALL.iter().position(|&l| l == level).expect("level");
        let ai = AppId::ALL.iter().position(|&a| a == app).expect("app");
        &self.reports[li][ai]
    }
}

/// Run every app at every level.
pub fn run(w: &Workload) -> (Table23Results, String) {
    let mut reports = Vec::new();
    for level in OptimizationLevel::ALL {
        let surfer = w.surfer(w.t1_cluster(), level);
        let row: Vec<ExecReport> =
            AppId::ALL.iter().map(|&app| run_propagation(&surfer, app)).collect();
        reports.push(row);
    }
    let results = Table23Results { reports };

    let mut header = vec!["Level"];
    for app in AppId::ALL {
        header.push(app.name());
        header.push("");
    }
    let mut rows2 = Vec::new();
    let mut rows3 = Vec::new();
    for (li, level) in OptimizationLevel::ALL.iter().enumerate() {
        let mut r2 = vec![level.to_string()];
        let mut r3 = vec![level.to_string()];
        for report in &results.reports[li] {
            r2.push(fmt::secs(report.response_time));
            r2.push(fmt::secs(report.total_machine_time));
            r3.push(fmt::mb(report.network_bytes));
            r3.push(fmt::mb(report.disk_bytes()));
        }
        rows2.push(r2);
        rows3.push(r3);
    }
    let sub2: Vec<&str> = std::iter::once("")
        .chain(AppId::ALL.iter().flat_map(|_| ["Res(s)", "Total(s)"]))
        .collect();
    let sub3: Vec<&str> = std::iter::once("")
        .chain(AppId::ALL.iter().flat_map(|_| ["Net(MB)", "Disk(MB)"]))
        .collect();

    let mut text = fmt::table(
        "Table 2: response time and total machine time on T1 (seconds)",
        &header,
        &std::iter::once(sub2.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .chain(rows2)
            .collect::<Vec<_>>(),
    );
    text.push_str(&fmt::table(
        "Table 3: network and disk I/O on T1 (MB)",
        &header,
        &std::iter::once(sub3.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .chain(rows3)
            .collect::<Vec<_>>(),
    ));
    (results, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpConfig;
    use surfer_graph::generators::social::MsnScale;

    #[test]
    fn optimizations_improve_monotonically_in_shape() {
        let _obs = crate::obs_guard::shared();
        let cfg = ExpConfig { scale: MsnScale::Tiny, machines: 8, partitions: 8, seed: 2010 };
        let w = Workload::prepare(cfg);
        let (res, text) = run(&w);
        use OptimizationLevel::*;
        // O3/O4 (local opts) must cut network traffic for the associative
        // edge-oriented apps vs O1/O2.
        for app in [AppId::Nr, AppId::Rs, AppId::Tfl] {
            let o1 = res.get(O1, app).network_bytes;
            let o4 = res.get(O4, app).network_bytes;
            assert!(o4 < o1, "{}: O4 {} !< O1 {}", app.name(), o4, o1);
        }
        // Local propagation cuts disk I/O for every edge-oriented app.
        for app in [AppId::Nr, AppId::Rlg, AppId::Tc, AppId::Tfl] {
            let o1 = res.get(O1, app).disk_bytes();
            let o3 = res.get(O3, app).disk_bytes();
            assert!(o3 < o1, "{}: O3 disk {} !< O1 {}", app.name(), o3, o1);
        }
        assert!(text.contains("Table 2") && text.contains("Table 3"));
    }
}
