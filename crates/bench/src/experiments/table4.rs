//! Table 4: source-code lines in the user-defined functions.
//!
//! The MapReduce and propagation columns count the *actual* Rust UDF bodies
//! in `surfer-apps` (LOC markers). The paper's Hadoop column cannot be
//! measured here — its Java sources are unavailable — so it is reported from
//! the paper for reference.

use crate::fmt;
use surfer_apps::loc::table4_rows;

/// Paper's Hadoop column (Table 4), for side-by-side display only.
fn paper_hadoop(app: &str) -> usize {
    match app {
        "VDD" => 24,
        "NR" => 147,
        "RS" => 152,
        "RLG" => 131,
        "TC" => 157,
        "TFL" => 171,
        _ => 0,
    }
}

/// Run the experiment.
pub fn run() -> String {
    let rows = table4_rows();
    fmt::table(
        "Table 4: UDF source lines (ours measured from this repo; Hadoop column = paper's Java, for reference)",
        &["App", "Hadoop (paper)", "Home-grown MR (ours)", "Propagation (ours)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    paper_hadoop(r.app).to_string(),
                    r.mapreduce.to_string(),
                    r.propagation.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_apps() {
        let _obs = crate::obs_guard::shared();
        let text = super::run();
        for app in ["VDD", "NR", "RS", "RLG", "TC", "TFL"] {
            assert!(text.contains(app), "missing {app}:\n{text}");
        }
    }
}
