//! The paper's experiments (§IV), one function per table/figure.
//!
//! Every function returns plain data rows; `print_*` helpers render
//! paper-style tables. The `repro` binary wires them to the command
//! line; EXPERIMENTS.md lists them.

use crate::harness::{measure_options, measure_preset, WorkloadKind, MT_THREADS};
use gsim::{OptOptions, Preset, SupernodeChoice};
use gsim_designs::{paper_suite, SuiteDesign};
use gsim_workloads::{programs, spec_profiles, Profile};

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Design scale relative to the paper's node counts (1.0 = paper
    /// size; default keeps runs tractable).
    pub scale: f64,
    /// Cycles per measurement for stimulus-driven designs.
    pub cycles: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 0.02,
            cycles: 2_000,
        }
    }
}

/// Builds the four-design suite once.
pub fn build_suite(cfg: &Config) -> Vec<SuiteDesign> {
    paper_suite(cfg.scale)
}

/// The two main software workloads for a given design (Figure 6's
/// columns): stuCore runs real programs; synthetic cores run stimulus
/// profiles.
pub fn main_workloads(design: &SuiteDesign) -> Vec<WorkloadKind> {
    if design.name == "stuCore" {
        vec![
            WorkloadKind::Program(programs::linux_boot_mini(1_500)),
            WorkloadKind::Program(programs::coremark_mini(40)),
        ]
    } else {
        vec![
            WorkloadKind::Stimulus(Profile::linux()),
            WorkloadKind::Stimulus(Profile::coremark()),
        ]
    }
}

// ---------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug)]
pub struct Table1Row {
    /// Design name.
    pub name: &'static str,
    /// IR nodes.
    pub nodes: usize,
    /// IR edges.
    pub edges: usize,
    /// Verilator-preset speed in Hz (Linux-like workload).
    pub hz: f64,
}

/// Table I: baseline (Verilator-like) speed across design scales.
pub fn table1(suite: &[SuiteDesign], cfg: &Config) -> Vec<Table1Row> {
    suite
        .iter()
        .map(|d| {
            let wl = &main_workloads(d)[0];
            let stats = measure_preset(&d.graph, Preset::Verilator, wl, cfg.cycles);
            Table1Row {
                name: d.name,
                nodes: d.graph.num_nodes(),
                edges: d.graph.num_edges(),
                hz: stats.hz,
            }
        })
        .collect()
}

/// Prints Table I.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table I: Verilator-like (single thread) simulation speed");
    println!(
        "{:<12} {:>10} {:>10} {:>14}",
        "Name", "IR node", "IR edge", "Speed"
    );
    for r in rows {
        println!(
            "{:<12} {:>10} {:>10} {:>12}",
            r.name,
            r.nodes,
            r.edges,
            format_hz(r.hz)
        );
    }
}

// --------------------------------------------------------------- Figure 6

/// One cell of Figure 6: a simulator's speedup on a design/workload.
#[derive(Debug)]
pub struct Fig6Row {
    /// Design name.
    pub design: &'static str,
    /// Workload name.
    pub workload: String,
    /// (simulator label, speedup vs Verilator-1T) pairs.
    pub speedups: Vec<(String, f64)>,
}

/// Figure 6: overall performance of every simulator vs Verilator-1T.
pub fn fig6(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for d in suite {
        for wl in main_workloads(d) {
            let base = measure_preset(&d.graph, Preset::Verilator, &wl, cfg.cycles);
            let mut speedups = Vec::new();
            for t in MT_THREADS {
                let s = measure_preset(&d.graph, Preset::VerilatorMt(t), &wl, cfg.cycles);
                speedups.push((format!("Verilator-{t}T"), s.hz / base.hz));
            }
            for preset in [Preset::Essent, Preset::Arcilator, Preset::Gsim] {
                let s = measure_preset(&d.graph, preset, &wl, cfg.cycles);
                speedups.push((preset.name(), s.hz / base.hz));
            }
            rows.push(Fig6Row {
                design: d.name,
                workload: wl.name().to_string(),
                speedups,
            });
        }
    }
    rows
}

/// Prints Figure 6.
pub fn print_fig6(rows: &[Fig6Row]) {
    println!("Figure 6: speedup over single-threaded Verilator-like baseline");
    for r in rows {
        println!("\n[{} / {}]", r.design, r.workload);
        for (sim, x) in &r.speedups {
            println!("  {sim:<16} {x:>7.2}x  {}", bar(*x, 4.0));
        }
    }
}

// --------------------------------------------------------------- Figure 7

/// One SPEC checkpoint's result.
#[derive(Debug)]
pub struct Fig7Row {
    /// Checkpoint name.
    pub checkpoint: String,
    /// Verilator-4T speedup.
    pub v4: f64,
    /// Verilator-8T speedup.
    pub v8: f64,
    /// GSIM speedup.
    pub gsim: f64,
}

/// Figure 7: SPEC CPU2006 checkpoints on the XiangShan-like core.
pub fn fig7(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig7Row> {
    let xs = suite
        .iter()
        .find(|d| d.name == "XiangShan")
        .expect("suite contains XiangShan");
    let mut rows = Vec::new();
    for profile in spec_profiles() {
        let wl = WorkloadKind::Stimulus(profile.clone());
        let base = measure_preset(&xs.graph, Preset::Verilator, &wl, cfg.cycles);
        let v4 = measure_preset(&xs.graph, Preset::VerilatorMt(4), &wl, cfg.cycles);
        let v8 = measure_preset(&xs.graph, Preset::VerilatorMt(8), &wl, cfg.cycles);
        let gs = measure_preset(&xs.graph, Preset::Gsim, &wl, cfg.cycles);
        rows.push(Fig7Row {
            checkpoint: profile.name.to_string(),
            v4: v4.hz / base.hz,
            v8: v8.hz / base.hz,
            gsim: gs.hz / base.hz,
        });
    }
    rows
}

/// Geometric mean over the checkpoints of one column.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut logsum, mut n) = (0.0, 0usize);
    for v in values {
        logsum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (logsum / n as f64).exp()
}

/// Prints Figure 7.
pub fn print_fig7(rows: &[Fig7Row]) {
    println!("Figure 7: SPEC CPU2006 checkpoints on XiangShan-like core");
    println!(
        "{:<22} {:>12} {:>12} {:>8}",
        "checkpoint", "Verilator-4T", "Verilator-8T", "GSIM"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>8.2}",
            r.checkpoint, r.v4, r.v8, r.gsim
        );
    }
    println!(
        "{:<22} {:>12.2} {:>12.2} {:>8.2}",
        "geometric mean",
        geomean(rows.iter().map(|r| r.v4)),
        geomean(rows.iter().map(|r| r.v8)),
        geomean(rows.iter().map(|r| r.gsim)),
    );
}

// --------------------------------------------------------------- Figure 8

/// One design's per-technique breakdown.
#[derive(Debug)]
pub struct Fig8Row {
    /// Design name.
    pub design: &'static str,
    /// (technique, log10 speedup over the previous step) — entry 0 is
    /// the baseline with absolute Hz in the second field instead.
    pub steps: Vec<(String, f64)>,
    /// Baseline speed (Hz).
    pub baseline_hz: f64,
    /// Final speed (Hz).
    pub final_hz: f64,
}

/// Figure 8: incremental per-technique performance breakdown
/// (CoreMark-like workload, as in the paper's §IV-F methodology).
pub fn fig8(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for d in suite {
        let wl = main_workloads(d).remove(1); // CoreMark-like
        let mut prev_hz: Option<f64> = None;
        let mut baseline = 0.0;
        let mut steps = Vec::new();
        let mut last = 0.0;
        for (name, opts) in OptOptions::staircase() {
            let stats = measure_options(&d.graph, opts, &wl, cfg.cycles);
            match prev_hz {
                None => baseline = stats.hz,
                Some(p) => steps.push((name.to_string(), (stats.hz / p).log10())),
            }
            prev_hz = Some(stats.hz);
            last = stats.hz;
        }
        rows.push(Fig8Row {
            design: d.name,
            steps,
            baseline_hz: baseline,
            final_hz: last,
        });
    }
    rows
}

/// Prints Figure 8.
pub fn print_fig8(rows: &[Fig8Row]) {
    println!("Figure 8: per-technique breakdown, log10 incremental speedup");
    for r in rows {
        println!(
            "\n[{}]  baseline {}  ->  full GSIM {}  (total {:.2}x)",
            r.design,
            format_hz(r.baseline_hz),
            format_hz(r.final_hz),
            r.final_hz / r.baseline_hz
        );
        for (name, log) in &r.steps {
            println!("  {name:<34} {log:>+7.3}  {}", bar(log.max(0.0), 0.5));
        }
    }
}

// --------------------------------------------------------------- Figure 9

/// Speed vs maximum supernode size for one design.
#[derive(Debug)]
pub struct Fig9Row {
    /// Design name.
    pub design: &'static str,
    /// (max size, speedup normalized to size 100) pairs.
    pub points: Vec<(usize, f64)>,
}

/// The supernode sizes swept (the paper sweeps 0–400).
pub const FIG9_SIZES: [usize; 11] = [1, 5, 10, 20, 30, 40, 50, 100, 200, 300, 400];

/// Figure 9: performance vs maximum supernode size, everything else
/// enabled. Normalized to size 100 (mid-sweep reference).
pub fn fig9(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for d in suite {
        let wl = main_workloads(d).remove(1);
        let hz: Vec<(usize, f64)> = FIG9_SIZES
            .iter()
            .map(|&size| {
                let mut opts = OptOptions::all();
                opts.max_supernode_size = size;
                (size, measure_options(&d.graph, opts, &wl, cfg.cycles).hz)
            })
            .collect();
        let reference = hz
            .iter()
            .find(|(s, _)| *s == 100)
            .map(|(_, h)| *h)
            .unwrap_or(hz[0].1);
        rows.push(Fig9Row {
            design: d.name,
            points: hz.into_iter().map(|(s, h)| (s, h / reference)).collect(),
        });
    }
    rows
}

/// Prints Figure 9.
pub fn print_fig9(rows: &[Fig9Row]) {
    println!("Figure 9: speed vs maximum supernode size (normalized to size 100)");
    print!("{:<12}", "max size");
    for s in FIG9_SIZES {
        print!("{s:>7}");
    }
    println!();
    for r in rows {
        print!("{:<12}", r.design);
        for (_, v) in &r.points {
            print!("{v:>7.2}");
        }
        println!();
    }
}

// --------------------------------------------------------------- Table III

/// One partitioning algorithm's row.
#[derive(Debug)]
pub struct Table3Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Partition build time (seconds).
    pub partition_s: f64,
    /// Number of supernodes.
    pub supernodes: usize,
    /// Successor activations per cycle (`Asucc` traffic).
    pub activation_per_cycle: f64,
    /// Nodes evaluated per cycle (`E` traffic).
    pub active_per_cycle: f64,
    /// Simulation speed (Hz).
    pub hz: f64,
}

/// Table III: partitioning algorithms on the BOOM-like core running the
/// CoreMark-like workload, with all other optimizations disabled (the
/// paper's §IV-F methodology).
pub fn table3(suite: &[SuiteDesign], cfg: &Config) -> Vec<Table3Row> {
    let boom = suite
        .iter()
        .find(|d| d.name == "BOOM")
        .expect("suite contains BOOM");
    let wl = WorkloadKind::Stimulus(Profile::coremark());
    [
        ("None", SupernodeChoice::None),
        ("Kernighan", SupernodeChoice::Kernighan),
        ("MFFC-based", SupernodeChoice::Mffc),
        ("GSIM", SupernodeChoice::Gsim),
    ]
    .into_iter()
    .map(|(name, choice)| {
        let mut opts = OptOptions::none();
        opts.supernode = choice;
        let stats = measure_options(&boom.graph, opts, &wl, cfg.cycles);
        let c = stats.counters;
        Table3Row {
            algorithm: name,
            partition_s: stats.report.partition_time.as_secs_f64(),
            supernodes: stats.report.supernodes,
            activation_per_cycle: c.activations as f64 / c.cycles.max(1) as f64,
            active_per_cycle: c.node_evals as f64 / c.cycles.max(1) as f64,
            hz: stats.hz,
        }
    })
    .collect()
}

/// Prints Table III.
pub fn print_table3(rows: &[Table3Row]) {
    println!("Table III: partitioning algorithms (BOOM-like, CoreMark-like)");
    println!(
        "{:<12} {:>12} {:>11} {:>16} {:>13} {:>12}",
        "partition", "time (s)", "supernode", "activation/cyc", "active/cyc", "speed"
    );
    for r in rows {
        println!(
            "{:<12} {:>12.3} {:>11} {:>16.1} {:>13.1} {:>12}",
            r.algorithm,
            r.partition_s,
            r.supernodes,
            r.activation_per_cycle,
            r.active_per_cycle,
            format_hz(r.hz)
        );
    }
}

// --------------------------------------------------------------- Table IV

/// One (design, simulator) resource row.
#[derive(Debug)]
pub struct Table4Row {
    /// Design name.
    pub design: &'static str,
    /// Simulator name.
    pub simulator: String,
    /// Emission time (seconds): pass pipeline + C++ emission.
    pub emission_s: f64,
    /// Emitted code size (bytes of C++ source).
    pub code_bytes: usize,
    /// Data size (bytes of simulated state, memories excluded).
    pub data_bytes: usize,
}

/// Table IV: emission time / code size / data size per simulator.
pub fn table4(suite: &[SuiteDesign]) -> Vec<Table4Row> {
    use gsim_codegen::Style;
    let presets = [
        (Preset::Verilator, Style::FullCycle),
        (Preset::Essent, Style::Essential),
        (Preset::Arcilator, Style::FullCycle),
        (Preset::Gsim, Style::Essential),
    ];
    let mut rows = Vec::new();
    for d in suite {
        for (preset, style) in presets {
            let start = std::time::Instant::now();
            let opts = preset.options();
            let pass_opts = gsim_passes::PassOptions {
                expression_simplify: opts.expression_simplify,
                redundant_elim: opts.redundant_elim,
                node_inline: opts.node_inline,
                node_extract: opts.node_extract,
                bit_split: opts.bit_split,
                reset_slow_path: opts.reset_slow_path,
            };
            let (optimized, _) = gsim_passes::run(d.graph.clone(), &pass_opts);
            let partition = gsim_partition::PartitionOptions {
                algorithm: match opts.supernode {
                    SupernodeChoice::None => gsim_partition::Algorithm::None,
                    SupernodeChoice::Kernighan => gsim_partition::Algorithm::Kernighan,
                    SupernodeChoice::Mffc => gsim_partition::Algorithm::MffcBased,
                    SupernodeChoice::Gsim => gsim_partition::Algorithm::Gsim,
                },
                max_size: opts.max_supernode_size,
            };
            let out = gsim_codegen::emit(&optimized, style, &partition);
            rows.push(Table4Row {
                design: d.name,
                simulator: preset.name(),
                emission_s: start.elapsed().as_secs_f64(),
                code_bytes: out.code_bytes,
                data_bytes: out.data_bytes,
            });
        }
    }
    rows
}

/// Prints Table IV.
pub fn print_table4(rows: &[Table4Row]) {
    println!("Table IV: resource usage");
    println!(
        "{:<12} {:<14} {:>14} {:>12} {:>12}",
        "Design", "Simulator", "Emission (s)", "Code size", "Data size"
    );
    for r in rows {
        println!(
            "{:<12} {:<14} {:>14.3} {:>12} {:>12}",
            r.design,
            r.simulator,
            r.emission_s,
            format_bytes(r.code_bytes),
            format_bytes(r.data_bytes)
        );
    }
}

// ------------------------------------------------------------ §II factors

/// The §II-B measurements: activity factor and examination share.
#[derive(Debug)]
pub struct Factors {
    /// Activity factor (paper: ≈4.61% for CoreMark on XiangShan).
    pub activity_factor: f64,
    /// Share of active-bit examinations among counted work items
    /// (paper: 82.26% of executed branches) — measured on the
    /// *unoptimized* essential baseline, where the paper's analysis
    /// applies.
    pub exam_share: f64,
}

/// Measures the §II-B cost-model factors on the XiangShan-like core.
pub fn factors(suite: &[SuiteDesign], cfg: &Config) -> Factors {
    let xs = suite
        .iter()
        .find(|d| d.name == "XiangShan")
        .expect("suite contains XiangShan");
    let wl = WorkloadKind::Stimulus(Profile::coremark());
    // af under the full GSIM configuration; exam share on the
    // unoptimized per-node baseline (Listing 2).
    let gsim = measure_options(&xs.graph, OptOptions::all(), &wl, cfg.cycles);
    let baseline = measure_options(&xs.graph, OptOptions::none(), &wl, cfg.cycles);
    Factors {
        activity_factor: gsim.counters.activity_factor(xs.graph.num_nodes()),
        exam_share: baseline.counters.exam_share(),
    }
}

/// Prints the factors.
pub fn print_factors(f: &Factors) {
    println!("Cost-model factors (paper §II-B):");
    println!(
        "  activity factor af         = {:.2}%   (paper: ~4.61% CoreMark/XiangShan)",
        f.activity_factor * 100.0
    );
    println!(
        "  active-bit examination share = {:.2}%  (paper: 82.26% of branches)",
        f.exam_share * 100.0
    );
}

// ------------------------------------------------------------------ misc

pub(crate) fn format_hz(hz: f64) -> String {
    if hz >= 1e6 {
        format!("{:.2} MHz", hz / 1e6)
    } else if hz >= 1e3 {
        format!("{:.1} kHz", hz / 1e3)
    } else {
        format!("{hz:.0} Hz")
    }
}

pub(crate) fn format_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}M", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}K", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

fn bar(value: f64, full_scale: f64) -> String {
    let n = ((value / full_scale) * 40.0).clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.002,
            cycles: 60,
        }
    }

    #[test]
    fn table1_and_fig6_shapes() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let t1 = table1(&suite, &cfg);
        assert_eq!(t1.len(), 4);
        // Bigger designs simulate slower on the full-cycle baseline.
        assert!(t1[0].hz > t1[3].hz, "stuCore should outpace XiangShan-like");
    }

    #[test]
    fn fig7_uses_all_checkpoints() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = fig7(&suite, &cfg);
        assert_eq!(rows.len(), 12);
        assert!(geomean(rows.iter().map(|r| r.gsim)) > 0.0);
    }

    #[test]
    fn table3_rows_cover_algorithms() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = table3(&suite, &cfg);
        assert_eq!(rows.len(), 4);
        let none = &rows[0];
        let gsim = &rows[3];
        assert!(gsim.supernodes < none.supernodes);
    }

    #[test]
    fn table4_emits_for_all() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = table4(&suite);
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.code_bytes > 0));
    }

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
