//! `jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark run from the root of a spider-ind checkout and prints,
//! as its last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! The line before it holds the run's details (input sizes, sample counts,
//! tail percentile). Scratch data lives under `.jobbench/` and is removed
//! afterwards, except the traced runs' spans in `.jobbench/traces/`.

use jobbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn arg<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag} <value>"))
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let name = arg(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        arg(args, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match arg(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(RunConfig {
        workload,
        seed: number("--seed")?,
        scale: workload.scale(),
        seconds: number("--seconds")? as f64,
        trace,
        root: PathBuf::from(".jobbench").join(workload.name()),
        corrupt_oracle: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("jobbench: {e}");
    }
    if let Some(spans) = &report.spans {
        let dir = PathBuf::from(".jobbench").join("traces");
        let path = dir.join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("jobbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.detail);
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
