//! The metric names, and the report a run fills in.
//!
//! The two tables below are the harness's copy of `BENCHMARK.json`'s
//! `end_to_end` and `per_layer` lists; `tests/contract.rs` pins them to
//! each other. Every workload reports every metric: a per-layer metric
//! of a layer the workload never enters is `0` with `n=0`.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("sim_hz", "1/s"),
    ("sim_hz_jit", "1/s"),
    ("sim_hz_session", "1/s"),
    ("trace_hz", "1/s"),
    ("step_p50_us", "us"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in print order. Names are
/// `<crate>.<metric>`; `harness.*` is the benchmark itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("designs.gen_s", "s"),
    ("workloads.scenario_gen_s", "s"),
    ("graph.refinterp_hz", "1/s"),
    ("firrtl.parse_s", "s"),
    ("firrtl.lower_s", "s"),
    ("firrtl.src_bytes", "B"),
    ("firrtl.nodes_out", "count"),
    ("passes.total_s", "s"),
    ("passes.simplify_s", "s"),
    ("passes.redundant_s", "s"),
    ("passes.inline_s", "s"),
    ("passes.extract_s", "s"),
    ("passes.bitsplit_s", "s"),
    ("passes.cleanup_s", "s"),
    ("passes.nodes_in", "count"),
    ("passes.nodes_out", "count"),
    ("passes.edges_out", "count"),
    ("passes.inlined", "count"),
    ("passes.bit_split", "count"),
    ("partition.build_s", "s"),
    ("partition.supernodes", "count"),
    ("partition.max_size", "count"),
    ("sim.compile_s", "s"),
    ("sim.lowering_ms", "ms"),
    ("sim.instrs", "count"),
    ("sim.image_kib", "KiB"),
    ("sim.state_kib", "KiB"),
    ("sim.fused_pairs", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_cycle_jit", "ns"),
    ("sim.ns_per_instr", "ns"),
    ("sim.ns_per_instr_jit", "ns"),
    ("sim.node_evals_per_cycle", "count"),
    ("sim.supernode_evals_per_cycle", "count"),
    ("sim.aexam_checks_per_cycle", "count"),
    ("sim.activation_ops_per_cycle", "count"),
    ("sim.value_changes_per_cycle", "count"),
    ("sim.instrs_per_cycle", "count"),
    ("sim.activity_factor", "ratio"),
    ("sim.useful_eval_ratio", "ratio"),
    ("sim.hz_2t", "1/s"),
    ("sim.mt2_over_1t", "ratio"),
    ("sim.step1_ns", "ns"),
    ("sim.fork_us", "us"),
    ("sim.snapshot_us", "us"),
    ("codegen.emit_s", "s"),
    ("codegen.rustc_s", "s"),
    ("codegen.code_kib", "KiB"),
    ("codegen.binary_kib", "KiB"),
    ("codegen.spawn_ms", "ms"),
    ("codegen.pipe_rtt_us", "us"),
    ("codegen.cache_hit_ms", "ms"),
    ("codegen.sim_hz_aot", "1/s"),
    ("wave.bytes_per_cycle", "B"),
    ("wave.changes_per_cycle", "count"),
    ("wave.traced_over_untraced", "ratio"),
    ("wave.vcd_write_mb_s", "MB/s"),
    ("wave.vcd_parse_mb_s", "MB/s"),
    ("server.connect_us", "us"),
    ("server.open_hit_ms", "ms"),
    ("server.open_miss_s", "s"),
    ("server.step_rtt_interp_us", "us"),
    ("server.step_rtt_aot_us", "us"),
    ("server.peek_rtt_us", "us"),
    ("server.wire_share_us", "us"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.compiles", "count"),
    ("server.fallbacks", "count"),
    ("server.panics", "count"),
    ("session.step_req_p50_us", "us"),
    ("session.step_p99_us", "us"),
    ("session.open_warm_ms", "ms"),
    ("harness.trace_overhead", "ratio"),
];

/// One reported value: the median of `n` samples (with quartiles), or
/// a single measurement or count (`n == 1`, no quartiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
    pub quartiles: Option<(f64, f64)>,
}

/// The metrics one run measured, by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

fn lookup(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the tables of metrics.rs"))
}

impl Report {
    /// Records a single measurement or a count.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the tables or one already set: both
    /// are harness bugs that would otherwise print a metric twice.
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(
            name,
            Value {
                value,
                n: 1,
                quartiles: None,
            },
        );
    }

    /// Records a value that summarizes `n` samples (e.g. a percentile).
    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.insert(
            name,
            Value {
                value,
                n,
                quartiles: None,
            },
        );
    }

    /// Records the median of several samples with its quartiles.
    pub fn set_summary(&mut self, name: &str, s: Summary) {
        self.insert(
            name,
            Value {
                value: s.median,
                n: s.n,
                quartiles: Some((s.q1, s.q3)),
            },
        );
    }

    fn insert(&mut self, name: &str, v: Value) {
        let (key, _) = lookup(name);
        assert!(
            self.values.insert(key, v).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// The rows of one table, in table order. A per-layer metric the
    /// workload never set reads `0` with `n == 0`; a missing end-to-end
    /// metric is an error naming it.
    pub fn rows(
        &self,
        table: &'static [(&'static str, &'static str)],
        zero_fill: bool,
    ) -> Result<Vec<(&'static str, &'static str, Value)>, String> {
        table
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) => Ok((name, unit, *v)),
                None if zero_fill => Ok((
                    name,
                    unit,
                    Value {
                        value: 0.0,
                        n: 0,
                        quartiles: None,
                    },
                )),
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }
}

/// Prints one line per metric: `name value unit n=<samples> [q1 q3]`.
pub fn print_rows(rows: &[(&str, &str, Value)]) {
    for (name, unit, v) in rows {
        let q = match v.quartiles {
            Some((q1, q3)) => format!(" q1={q1:.6} q3={q3:.6}"),
            None => String::new(),
        };
        println!("{name} {:.6} {unit} n={}{q}", v.value, v.n);
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_json(attempted: u64, failed: u64, rows: &[(&str, &str, Value)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host facts printed with every run, so no reader mistakes a 2-core
/// number for a scaling result.
pub fn print_host() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(gsim_codegen::rustc_path())
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    println!("# host_cores {cores}");
    println!("# cpu {cpu}");
    println!("# rustc {rustc}");
}
