//! The harness against its own contract: `BENCHMARK.json` is well
//! formed, every metric it names is printed exactly once per run with
//! its unit, and a wrong result fails the command. Runs the real
//! binary at `--smoke` size.

use gsim_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["xs_linux", "xs_idle", "stucore_coremark", "svc_closed"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn metric_list(doc: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    let list = doc.get(key).and_then(Json::as_arr).expect(key);
    list.iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsim_benchmark"))
        // So that `out/` lands in this package whatever the test's cwd.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .arg("run")
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn benchmark_json_meets_the_schema() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = doc.get("run_seconds").and_then(Json::as_num).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let end_to_end = metric_list(&doc, "end_to_end");
    let per_layer = metric_list(&doc, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        assert!(is_name(name), "metric name {name:?}");
        assert!(is_unit(unit), "unit {unit:?} of {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert!(end_to_end.contains(&("setup_s".into(), "s".into())));
}

/// One smoke run: every metric of `list` is printed exactly once, with
/// its unit, as a line and in the result line; nothing else is.
fn check_run(workload: &str, trace: &str, list: &[(String, String)]) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let metric_lines = stdout.lines().filter(|l| !l.starts_with(['#', '{']));
    for line in metric_lines {
        let mut it = line.split_whitespace();
        let (name, _value, unit) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        assert!(it.next().unwrap().starts_with("n="), "{line}");
        printed.entry(name).or_default().push(unit);
    }
    let want: BTreeMap<&str, Vec<&str>> = list
        .iter()
        .map(|(n, u)| (n.as_str(), vec![u.as_str()]))
        .collect();
    assert_eq!(printed, want, "{workload} --trace {trace}");

    let result = json::parse(stdout.lines().last().unwrap()).expect("result line parses");
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), list.len());
    for (name, unit) in list {
        let m = &metrics[name];
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let v = m.get("value").and_then(Json::as_num).unwrap();
        // End-to-end metrics are never 0; an unexercised layer reads 0.
        assert!(v.is_finite() && (v > 0.0 || trace == "1"), "{name} = {v}");
    }
}

fn check_workload(workload: &str) {
    let doc = benchmark_json();
    check_run(workload, "0", &metric_list(&doc, "end_to_end"));
    check_run(workload, "1", &metric_list(&doc, "per_layer"));
}

#[test]
fn xs_linux_prints_every_metric_once() {
    check_workload("xs_linux");
}

#[test]
fn xs_idle_prints_every_metric_once() {
    check_workload("xs_idle");
}

#[test]
fn stucore_coremark_prints_every_metric_once() {
    check_workload("stucore_coremark");
}

#[test]
fn svc_closed_prints_every_metric_once() {
    check_workload("svc_closed");
}

#[test]
fn a_wrong_expected_value_fails_the_command() {
    let out = run(&[
        "--workload",
        "xs_idle",
        "--seed",
        "7",
        "--smoke",
        "--inject-failure",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(1.0));
}

#[test]
fn a_bad_command_line_is_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "xs_idle"],
        &["--seed", "x"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
