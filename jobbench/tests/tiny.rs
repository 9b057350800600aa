//! A tiny-scale pass of every workload, in both modes, through the same
//! `run` the benchmark binary calls.

use jobbench::{run, tail, HostClock, RunConfig, RunReport, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::sync::Mutex;

/// Runs one at a time: runs share scratch directories per workload, and
/// `export.bytes_written` counts the whole process's writes.
static RUNS: Mutex<()> = Mutex::new(());

fn tiny_scale(w: Workload) -> usize {
    match w {
        Workload::PdbCold | Workload::PdbWarm => 10,
        Workload::WideSpill => 8,
        Workload::ChainsNary => 24,
    }
}

fn tiny_run(w: Workload, trace: bool, corrupt_oracle: bool) -> RunReport {
    let _one_at_a_time = RUNS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "jobbench-{}-{}-{}",
        w.name(),
        u8::from(trace),
        u8::from(corrupt_oracle)
    ));
    let cfg = RunConfig {
        workload: w,
        seed: 7,
        scale: tiny_scale(w),
        seconds: 0.0,
        trace,
        root,
        corrupt_oracle,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

fn assert_emits(report: &RunReport, defs: &[jobbench::MetricDef], w: Workload) {
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{}: metric names", w.name());
    for (def, (_, value, unit)) in defs.iter().zip(&report.metrics) {
        assert_eq!(*unit, def.unit, "{}: unit of {}", w.name(), def.name);
        assert!(value.is_finite(), "{}: {} = {value}", w.name(), def.name);
        let line = report.result_line();
        let entry = format!("\"{}\": {{\"value\": ", def.name);
        assert!(
            line.contains(&entry),
            "{}: {} missing from {line}",
            w.name(),
            def.name
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes() {
    for w in Workload::ALL {
        let report = tiny_run(w, false, false);
        assert!(report.correct, "{}: {:?}", w.name(), report.errors);
        assert_eq!(report.failed, 0, "{}", w.name());
        assert!(report.attempted >= 3, "{}", w.name());
        assert_emits(&report, &END_TO_END, w);
        assert_eq!(report.metric("ok_share"), Some(1.0), "{}", w.name());
        for def in END_TO_END {
            let value = report.metric(def.name).unwrap_or(0.0);
            assert!(
                value > 0.0,
                "{}: end-to-end {} is {value}",
                w.name(),
                def.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_layer_metric_and_the_trace_composes() {
    for w in Workload::ALL {
        let report = tiny_run(w, true, false);
        assert!(report.correct, "{}: {:?}", w.name(), report.errors);
        assert_emits(&report, &PER_LAYER, w);
        let coverage = report.metric("trace.coverage").unwrap_or(0.0);
        assert!(
            (1.0 - jobbench::COVERAGE_TOLERANCE..=1.0).contains(&coverage),
            "{}: coverage {coverage}",
            w.name()
        );
        let spans = report.spans.as_deref().unwrap_or("");
        assert!(spans.contains("\"name\": \"job\""), "{}: {spans}", w.name());
        let layer = if w == Workload::ChainsNary {
            "nary"
        } else {
            "merge"
        };
        assert!(
            spans.contains(&format!("\"name\": \"{layer}\"")),
            "{}",
            w.name()
        );
    }
}

#[test]
fn reuse_ratio_is_one_warm_and_zero_cold() {
    let warm = tiny_run(Workload::PdbWarm, true, false);
    assert_eq!(warm.metric("export.reuse_ratio"), Some(1.0));
    let cold = tiny_run(Workload::PdbCold, true, false);
    assert_eq!(cold.metric("export.reuse_ratio"), Some(0.0));
    assert!(cold.metric("export.bytes_written").unwrap_or(0.0) > 0.0);
    assert_eq!(warm.metric("export.bytes_written"), Some(0.0));
}

#[test]
fn a_wrong_oracle_fails_every_job() {
    for w in [Workload::PdbCold, Workload::ChainsNary] {
        let report = tiny_run(w, false, true);
        assert!(!report.correct, "{}", w.name());
        assert_eq!(report.failed, report.attempted, "{}", w.name());
        assert_eq!(report.metric("ok_share"), Some(0.0), "{}", w.name());
    }
}

#[test]
fn tail_has_ten_samples_beyond_it() {
    let times: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(tail(&times), (30.0, 75.0, 10));
    // Too few samples for ten beyond: the tail falls back to the median,
    // the upper one for an even count, never below it.
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&twenty), (11.0, 55.0, 9));
    let five: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(tail(&five), (3.0, 60.0, 2));
    let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
    assert_eq!(tail(&twenty_five), (15.0, 60.0, 10));
}

#[test]
fn host_clock_runs_the_reference_kernel_around_the_work() {
    let mut clock = HostClock::default();
    let ((), wall, scale) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
    assert!(wall >= 0.02, "wall {wall}");
    assert!(scale.is_finite() && scale > 0.0, "scale {scale}");
    assert_eq!(clock.references.len(), 2);
    // The kernel run after one piece of work serves as the one before the
    // next, unless the chain was broken by untimed work in between.
    clock.time(|| ());
    assert_eq!(clock.references.len(), 3);
    clock.break_chain();
    clock.time(|| ());
    assert_eq!(clock.references.len(), 5);
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        // pdb_cold runs by hand only: its fsync waits swing more than any
        // bound allows between sets of runs on a shared host (see
        // README.md).
        let listed = text.contains(&format!("\"name\": \"{}\"", w.name()));
        let gated = w != Workload::PdbCold;
        assert_eq!(listed, gated, "{}", w.name());
    }
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
