//! `repeat`: runs every workload several times back to back on the
//! same code and says whether the benchmark repeats within its own
//! bounds.

use crate::inputs::Workload;
use crate::metrics::print_host;
use crate::Args;
use gsim_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// An end-to-end metric repeats if two sets agree within its bound or
/// a tenth, whichever is smaller.
const REPEAT_LIMIT: f64 = 0.1;

type Metrics = BTreeMap<String, (f64, String)>;

/// Runs one workload in a child process (so `peak_rss_mb` is its own)
/// and parses the result line.
fn run_once(workload: Workload, trace: bool, extra: &[String]) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name(), "--seed", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {last}\n{}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let result = json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num).ok_or("no value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("no unit")?;
            Ok((name.clone(), (value, unit.to_string())))
        })
        .collect()
}

/// `name → (bound, higher is better)` of the end-to-end metrics.
fn bounds(benchmark_dir: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = benchmark_dir.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            Ok((name.to_string(), (bound, better == "higher")))
        })
        .collect()
}

pub fn repeat_command(mut args: Args, benchmark_dir: &Path) -> Result<ExitCode, String> {
    let sets: usize = args.value("--sets")?.unwrap_or(2);
    let mut extra = Vec::new();
    if let Some(s) = args.value::<f64>("--seconds")? {
        extra.extend(["--seconds".to_string(), s.to_string()]);
    }
    if args.flag("--smoke") {
        extra.push("--smoke".to_string());
    }
    args.done()?;
    if sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let bounds = bounds(benchmark_dir)?;
    print_host();
    let mut bad = 0;
    for w in Workload::ALL {
        let mut runs = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..sets {
            runs.push(run_once(w, false, &extra)?);
            counts.push(run_once(w, true, &extra)?);
        }
        println!("{}", w.name());
        for (name, &(bound, higher)) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.get(name).map_or(f64::NAN, |m| m.0))
                .collect();
            // Worst later set against the first, as a share of the first.
            let worse = values[1..]
                .iter()
                .map(|v| if higher { values[0] - v } else { v - values[0] } / values[0])
                .fold(f64::NEG_INFINITY, f64::max);
            let spread = (values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - values.iter().copied().fold(f64::INFINITY, f64::min))
                / values[0];
            let limit = bound.min(REPEAT_LIMIT);
            let ok = worse <= limit;
            bad += usize::from(!ok);
            println!(
                "  {name:<16} {values:?} spread {:.1} % of bound {:.0} %  {}",
                spread * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DOES NOT REPEAT" }
            );
        }
        // Counts are made by the program, not the clock: bit-identical.
        for (name, (first, unit)) in &counts[0] {
            let same = counts[1..]
                .iter()
                .all(|c| c.get(name).map(|m| m.0) == Some(*first));
            if unit == "count" && !same {
                bad += 1;
                println!("  {name} is a count and differs between sets: DOES NOT REPEAT");
            }
        }
    }
    println!("{bad} metrics do not repeat");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
