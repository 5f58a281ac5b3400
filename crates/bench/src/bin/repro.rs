//! `repro` — regenerates the GSIM paper's tables and figures.
//!
//! ```text
//! repro [all|table1|fig6|fig7|fig8|fig9|table3|table4|factors]
//!       [--scale F] [--cycles N]
//! ```
//!
//! `--scale` sizes the synthetic designs relative to the paper's node
//! counts (default 0.02; 1.0 regenerates paper-size designs, including
//! a ~6.2M-node XiangShan stand-in — expect long compile times). With
//! `GSIM_BENCH_SMOKE=1` the suite shrinks to tiny designs and short
//! runs, unless `--scale` / `--cycles` are given explicitly.
//!
//! The repository's performance record is the standalone benchmark in
//! `benchmark/` (see `BENCHMARK.json`); `repro` prints the paper's
//! tables and commits no numbers.

use gsim_bench::experiments as exp;

/// The targets `repro` knows, in print order (`all` selects every one).
const TARGETS: [&str; 8] = [
    "table1", "fig6", "fig7", "fig8", "fig9", "table3", "table4", "factors",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = exp::Config::default();
    let mut explicit_size = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                explicit_size = true;
            }
            "--cycles" => {
                cfg.cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cycles needs a number"));
                explicit_size = true;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if other == "all" || TARGETS.contains(&other) => which.push(other.to_string()),
            other if !other.starts_with('-') => die(&format!("unknown target {other}")),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let smoke = std::env::var_os("GSIM_BENCH_SMOKE").is_some();
    if smoke && !explicit_size {
        cfg.scale = 0.002;
        cfg.cycles = 256;
    }
    if which.is_empty() {
        which.push("all".into());
    }
    let all = which.iter().any(|w| w == "all");
    let wants = |name: &str| all || which.iter().any(|w| w == name);

    eprintln!(
        "# building design suite (scale {}, {} cycles per run{})...",
        cfg.scale,
        cfg.cycles,
        if smoke { ", smoke" } else { "" }
    );
    let suite = exp::build_suite(&cfg);
    for d in &suite {
        eprintln!(
            "#   {:<10} {:>8} nodes {:>9} edges (paper: {} nodes)",
            d.name,
            d.graph.num_nodes(),
            d.graph.num_edges(),
            d.paper_nodes
        );
    }
    if wants("table1") {
        section("Table I");
        exp::print_table1(&exp::table1(&suite, &cfg));
    }
    if wants("fig6") {
        section("Figure 6");
        exp::print_fig6(&exp::fig6(&suite, &cfg));
    }
    if wants("fig7") {
        section("Figure 7");
        exp::print_fig7(&exp::fig7(&suite, &cfg));
    }
    if wants("fig8") {
        section("Figure 8");
        exp::print_fig8(&exp::fig8(&suite, &cfg));
    }
    if wants("fig9") {
        section("Figure 9");
        exp::print_fig9(&exp::fig9(&suite, &cfg));
    }
    if wants("table3") {
        section("Table III");
        exp::print_table3(&exp::table3(&suite, &cfg));
    }
    if wants("table4") {
        section("Table IV");
        exp::print_table4(&exp::table4(&suite));
    }
    if wants("factors") {
        section("Cost-model factors");
        exp::print_factors(&exp::factors(&suite, &cfg));
    }
}

fn section(name: &str) {
    println!("\n{}", "=".repeat(64));
    println!("== {name}");
    println!("{}", "=".repeat(64));
}

fn usage() {
    println!(
        "repro [all|table1|fig6|fig7|fig8|fig9|table3|table4|factors] [--scale F] [--cycles N]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}
