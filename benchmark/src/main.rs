//! The repo's benchmark: one command that runs one workload, prints
//! every metric by name with its unit, checks that results are correct,
//! and ends with the result line the driver reads. See `README.md`.

mod checks;
mod inputs;
mod legs;
mod metrics;
mod pipeline;
mod repeat;
mod run;
mod setup;
mod span;
mod stats;
mod wave;

use inputs::Workload;
use metrics::{print_host, print_rows, result_json, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  gsim_benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke] [--inject-failure]
  gsim_benchmark repeat [--sets <n>] [--seconds <s>] [--smoke]
workloads: xs_linux xs_idle stucore_coremark svc_closed";

/// `benchmark/` — where `out/` goes and, one level up, `BENCHMARK.json`.
/// The driver runs the command from the root of a checkout; fall back
/// to the directory the package was built in.
fn benchmark_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        std::env::current_dir().map_or(here.clone(), |cwd| cwd.join(&here))
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

struct Args(Vec<String>);

impl Args {
    /// Removes `--name` and returns whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Removes `--name <value>` and parses the value.
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        v.parse()
            .map(Some)
            .map_err(|_| format!("bad value {v:?} for {name}"))
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument {a:?}")),
        }
    }
}

fn run_command(mut args: Args, started: Instant) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let inject_failure = args.flag("--inject-failure");
    // `--trace 0|1` as the driver passes it; a bare `--trace` means 1.
    let trace = match args.value::<u8>("--trace") {
        Ok(v) => v.is_some_and(|v| v != 0),
        Err(_) => args.flag("--trace"),
    };
    let name: String = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = args.value("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args
        .value("--seconds")?
        .unwrap_or(if smoke { 1.5 } else { 20.0 });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    args.done()?;

    let opts = run::Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        inject_failure,
        out_dir: benchmark_dir().join("out"),
    };
    println!(
        "# workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    print_host();
    let outcome = run::run(&opts, started)?;
    let rows = if trace {
        outcome.report.rows(PER_LAYER, true)?
    } else {
        outcome.report.rows(END_TO_END, false)?
    };
    print_rows(&rows);
    let c = &outcome.checks;
    println!("# checks attempted {} failed {}", c.attempted, c.failed);
    for m in &c.messages {
        println!("# FAILED {m}");
    }
    println!("{}", result_json(c.attempted, c.failed, &rows));
    Ok(if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let result = match command.as_str() {
        "run" => run_command(Args(argv), started),
        "repeat" => repeat::repeat_command(Args(argv), &benchmark_dir()),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
