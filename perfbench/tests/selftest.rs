//! The benchmark's own test. Every workload, run at tiny size, prints
//! every named end-to-end and per-layer metric with its unit and passes
//! its checks; each workload reaches the cache path it was chosen for;
//! and a reference corrupted on purpose makes the check fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve_sweep", "kernel_cold", "bit_accurate"];

const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

const PER_LAYER: [(&str, &str); 25] = [
    ("serve.runtime.run_ms", "ms"),
    ("serve.runtime.self_ms", "ms"),
    ("serve.runtime.sim_req_per_s", "1/s"),
    ("serve.runtime.batches", "count"),
    ("core.engine.hit_launch_us", "us"),
    ("core.engine.stream_lookup_us", "us"),
    ("dram.request_queue.req_per_s", "1/s"),
    ("core.cache.plan_hit_ratio", "ratio"),
    ("core.cache.stream_hit_ratio", "ratio"),
    ("core.cache.report_hit_ratio", "ratio"),
    ("core.engine.cold_launch_us.gemv", "us"),
    ("core.engine.cold_launch_us.gemm", "us"),
    ("core.engine.cold_launch_us.batch", "us"),
    ("jc.iarm.seqs_per_s", "1/s"),
    ("jc.iarm.seqs", "count"),
    ("core.shard.plan_us", "us"),
    ("core.engine.fold_us", "us"),
    ("jc.bank.increments_per_s", "1/s"),
    ("jc.bank.ambit_ops", "count"),
    ("ecc.protect.retry_ratio", "ratio"),
    ("core.kernels.gemv_us", "us"),
    ("jc.ambit_lower.lower_us", "us"),
    ("cim.ambit.cmds_per_s", "1/s"),
    ("dram.scheduler.cmds_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
];

struct Run {
    code: Option<i32>,
    stdout: String,
    result: Value,
}

fn run(workload: &str, trace: &str, corrupt: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"]);
    cmd.args(["--trace", trace, "--size", "tiny"]);
    if corrupt {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    let last = stdout.lines().last().expect("a result line").to_string();
    Run {
        code: out.status.code(),
        result: serde_json::from_str(&last).expect("the result line is JSON"),
        stdout,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
        }
        other => panic!("not an object: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::Int(i) => *i as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn error_rate(stdout: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("error_rate: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("an error_rate line")
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        for (trace, names) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let r = run(w, trace, false);
            assert_eq!(r.code, Some(0), "{w} --trace {trace}:\n{}", r.stdout);
            assert_eq!(error_rate(&r.stdout), 0.0, "{w} --trace {trace}");
            assert_eq!(field(&r.result, "correct"), &Value::Bool(true));
            assert_eq!(number(field(&r.result, "failed")), 0.0);
            assert!(number(field(&r.result, "attempted")) >= 1.0);
            let metrics = field(&r.result, "metrics");
            for (name, unit) in names {
                let m = field(metrics, name);
                assert_eq!(
                    field(m, "unit"),
                    &Value::Str((*unit).to_string()),
                    "{w} {name}"
                );
                assert!(number(field(m, "value")).is_finite(), "{w} {name}");
            }
        }
    }
}

#[test]
fn each_workload_takes_the_cache_path_it_was_chosen_for() {
    let report_hits = |w: &str| {
        let r = run(w, "1", false);
        number(field(
            field(field(&r.result, "metrics"), "core.cache.report_hit_ratio"),
            "value",
        ))
    };
    assert_eq!(report_hits("serve_sweep"), 1.0);
    assert!(report_hits("kernel_cold") < 0.01);
}

#[test]
fn a_corrupted_reference_fails_the_check() {
    for w in WORKLOADS {
        let r = run(w, "0", true);
        assert_eq!(r.code, Some(1), "{w}:\n{}", r.stdout);
        assert!(error_rate(&r.stdout) > 0.0, "{w}");
        assert_eq!(field(&r.result, "correct"), &Value::Bool(false), "{w}");
        assert!(number(field(&r.result, "failed")) > 0.0, "{w}");
    }
}
