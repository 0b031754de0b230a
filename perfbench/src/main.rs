//! Command line of the whole-job benchmark:
//!
//! ```text
//! surfer-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, the metrics with their sample counts, and as the last line
//! one JSON result object. Exits 1 when any output is wrong, 2 on bad
//! arguments. A traced run also writes its spans and counters to
//! `.bench_out/trace-<workload>-<seed>.json` under the working directory.
//! Checkpoint and spill files go under the OS temp directory.

use std::path::PathBuf;
use std::process::ExitCode;
use surfer_perfbench::{run, RunOpts, Size};

fn parse() -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: 0,
        size: Size::Full,
        scratch: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    opts.scratch = std::env::temp_dir().join(format!("surfer-perfbench-{}", std::process::id()));
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("scratch directory {}: {e}", opts.scratch.display()))
        .and_then(|()| run(&workload, &opts));
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    if let Some(json) = &outcome.trace_json {
        let out_dir = PathBuf::from(".bench_out");
        let path = out_dir.join(format!("trace-{workload}-{}.json", opts.seed));
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    println!("{workload} (seed {}, threads {}):", opts.seed, opts.threads);
    for m in outcome.reported(opts.trace) {
        println!(
            "  {:<28} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &outcome.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    println!("{}", outcome.result_line(opts.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
