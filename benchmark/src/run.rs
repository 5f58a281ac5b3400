//! One run of one workload: set-up, then the timed rounds, then the
//! report.
//!
//! Every workload has the same shape. Set-up builds the design for the
//! in-process engines, replays a prefix on the reference interpreter,
//! and brings up the workload's *session backend* — the `Session`
//! implementor a user of that design would hold:
//!
//! | workload | session backend | "open one more session" |
//! |---|---|---|
//! | `xs_linux`, `xs_idle` | in-process jit `Simulator` | `clone_at_snapshot` (fork) |
//! | `stucore_coremark` | `AotSession` (child process on a pipe) | `AotSim::session` (spawn) |
//! | `svc_closed` | `ClientSession` → `Server` → AoT child | connect + `open_design` (cache hit) |
//!
//! Then come the timed legs, interleaved round by round (see `legs`):
//! batch rates on the interpreter, the jit and the session backend, the
//! interpreter with every signal traced, and the closed-loop clients.

use crate::checks::{compare_traces, session_trace, Checks};
use crate::inputs::{generate, Source, Workload, LIFECYCLE_STEPS};
use crate::legs::{pool, BatchLeg, Client, ClientLog, ClientWork, Opener, SEGMENTS};
use crate::metrics::{peak_rss_mib, Report};
use crate::pipeline::{build_by_layer, build_untraced};
use crate::setup::{
    fixed_pass, reset_fork, service_open, stop_server, wait_for_sessions, Backend, Run,
    COUNT_CYCLES,
};
use crate::span::{breakdown, write_json, Tracer};
use crate::stats::secs;
use crate::wave::wave_cost;
use gsim_sim::{GsimError, Scenario, Session, Value};
use gsim_wave::{CountingWriter, VcdWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny designs and programs, for the harness's own tests.
    pub smoke: bool,
    pub inject_failure: bool,
    /// `benchmark/out`: trace files, and this run's scratch below it.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub report: Report,
    pub checks: Checks,
}

/// Seconds of each leg, out of `--seconds`.
struct Plan {
    interp: f64,
    jit: f64,
    /// Batch on the session backend (the xs backend *is* the jit
    /// simulator, so there the jit leg is reported twice instead).
    session: f64,
    wave: f64,
    requests: f64,
    lifecycles: f64,
    /// `compile_firrtl` repeats (untraced runs of the FIRRTL designs).
    compile: f64,
    /// Traced runs only: `EssentialMt(2)` (xs) and the same loop with
    /// tracing off, behind `harness.trace_overhead`.
    mt2: f64,
    untraced: f64,
}

fn plan(w: Workload, seconds: f64, trace: bool) -> Plan {
    // Shares of the run, by what each workload is for: the xs pair is
    // about the in-process engines, svc_closed about the wire.
    let (interp, jit, session, wave, requests, lifecycles, compile) = match w {
        Workload::XsLinux | Workload::XsIdle => (0.26, 0.26, 0.0, 0.16, 0.16, 0.16, 0.0),
        Workload::StucoreCoremark => (0.19, 0.19, 0.20, 0.16, 0.14, 0.10, 0.02),
        Workload::SvcClosed => (0.10, 0.10, 0.14, 0.08, 0.29, 0.27, 0.02),
    };
    let (mt2, untraced) = match (trace, w) {
        (false, _) => (0.0, 0.0),
        (true, Workload::XsLinux | Workload::XsIdle) => (0.16, 0.08),
        (true, _) => (0.0, 0.08),
    };
    let k = seconds * (1.0 - mt2 - untraced);
    Plan {
        interp: interp * k,
        jit: jit * k,
        session: session * k,
        wave: wave * k,
        requests: requests * k,
        lifecycles: lifecycles * k,
        compile: compile * k,
        mt2: mt2 * seconds,
        untraced: untraced * seconds,
    }
}

/// Runs the workload. `started` is the process start: `setup_s` runs
/// from there to the first timed round.
///
/// # Errors
///
/// A message when the run could not be measured at all: a layer
/// refused the inputs, `rustc` is missing, the service did not start.
/// Wrong results are not errors; they are counted in the outcome.
pub fn run(opts: &Options, started: Instant) -> Result<Outcome, String> {
    let scratch = opts.out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("tmp"))
        .map_err(|e| format!("{}: {e}", scratch.display()))?;
    // The AoT backend and `rustc` put their scratch files in the temp
    // dir; keep them inside the checkout. Set before any thread starts.
    std::env::set_var("TMPDIR", scratch.join("tmp"));
    let tracer = Tracer::new(opts.trace, started);
    let root = tracer.begin(0, &format!("workload:{}", opts.workload.name()));
    let mut run = Run {
        opts,
        root: root.id(),
        tracer,
        report: Report::default(),
        checks: Checks::new(opts.inject_failure),
        scratch: scratch.clone(),
    };
    let result = measure(&mut run, started);
    run.tracer.end(root);
    let _ = std::fs::remove_dir_all(&scratch);
    result.map_err(|e| e.to_string())?;
    if opts.trace {
        finish_trace(&run, &opts.out_dir)?;
    }
    Ok(Outcome {
        report: run.report,
        checks: run.checks,
    })
}

/// The timed rounds: in each, one segment of every batch leg on this
/// thread, then one slice of requests and lifecycles on every client.
/// The service's clients are independent connections, each on its own
/// thread, parked on a barrier while the batch legs run; the in-process
/// and AoT openers borrow state that is not `Sync`, and their one
/// client runs on this thread.
fn timed_rounds(
    run: &mut Run<'_>,
    legs: &mut [BatchLeg<'_>],
    extra: &mut dyn FnMut() -> Result<(), GsimError>,
    backend: &Backend,
    open: &mut Opener<'_>,
    work: &ClientWork<'_>,
    clients: usize,
) -> Result<Vec<ClientLog>, GsimError> {
    let (tracer, root) = (&run.tracer, run.root);
    let checks = &mut run.checks;
    let mut batch_round = |round: usize| -> Result<(), GsimError> {
        let parent = work.round_span.load(Ordering::SeqCst);
        legs.iter_mut()
            .try_for_each(|leg| leg.segment(tracer, parent, round, checks))?;
        extra()
    };
    let Backend::Service {
        server,
        endpoint,
        source,
        ..
    } = backend
    else {
        let mut client = Client::new();
        for round in 0..=SEGMENTS {
            let span = tracer.begin(root, &format!("round:{round}"));
            work.round_span.store(span.id(), Ordering::SeqCst);
            batch_round(round)?;
            client.round(tracer, work, open, round);
            tracer.end(span);
        }
        return Ok(vec![client.finish()]);
    };
    // Main and clients meet twice per round: when the batch segments
    // are done, and when the clients' slices are. Nobody leaves early,
    // whatever fails, or the others would wait for ever.
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new();
                    let mut open = || service_open(endpoint, source);
                    for round in 0..=SEGMENTS {
                        barrier.wait();
                        client.round(tracer, work, &mut open, round);
                        barrier.wait();
                    }
                    client.finish()
                })
            })
            .collect();
        let mut failed = None;
        for round in 0..=SEGMENTS {
            let span = tracer.begin(root, &format!("round:{round}"));
            work.round_span.store(span.id(), Ordering::SeqCst);
            // The server tears sessions down after their clients have
            // moved on; let it finish before this thread is timed. What
            // stays: one held session per client, and this thread's
            // own for the session leg.
            wait_for_sessions(server, clients as u64 + 1);
            if failed.is_none() {
                failed = batch_round(round).err();
            }
            barrier.wait();
            barrier.wait();
            tracer.end(span);
        }
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        failed.map_or(Ok(logs), Err)
    })
}

fn measure(run: &mut Run<'_>, started: Instant) -> Result<(), GsimError> {
    let opts = run.opts;
    let w = opts.workload;
    let plan = plan(w, opts.seconds, opts.trace);

    // ---- set-up -----------------------------------------------------
    let inputs = run.tracer.scope(run.root, "inputs.generate", |_| {
        generate(w, opts.seed, opts.smoke)
    });
    run.report.set("designs.gen_s", inputs.gen_s);
    run.report
        .set("workloads.scenario_gen_s", inputs.scenario_gen_s);
    if matches!(inputs.source, Source::Firrtl(_)) && !gsim_codegen::rustc_available() {
        // A hard failure, never a silent skip.
        return Err(GsimError::Backend(format!(
            "{} needs the AoT backend, and `{}` cannot be run",
            w.name(),
            gsim_codegen::rustc_path()
        )));
    }
    let (built, mut compile) = if opts.trace {
        (
            build_by_layer(&inputs.source, &run.tracer, run.root, &mut run.report)?,
            None,
        )
    } else {
        build_untraced(&inputs.source, &mut run.report)?
    };
    println!(
        "# design {} nodes {} -> {} after passes, {} supernodes",
        built.graph.name(),
        built.graph.num_nodes(),
        built.optimized.num_nodes(),
        built.interp.num_supernodes()
    );
    let want = run.oracle(&inputs, &built).map_err(GsimError::Backend)?;
    run.count_pass(&inputs, &built)?;
    let lifecycles: Vec<(Scenario, Value)> =
        run.tracer.scope(run.root, "sim.lifecycle_table", |_| {
            inputs
                .lifecycles
                .iter()
                .map(|pre| {
                    let mut s = reset_fork(&built.interp, pre)?;
                    Session::step(&mut s, LIFECYCLE_STEPS)?;
                    Ok((pre.clone(), Session::peek(&mut s, inputs.probe)?))
                })
                .collect::<Result<_, GsimError>>()
        })?;
    if opts.trace {
        run.sim_probes(&inputs, &built)?;
        let cost = run.tracer.scope(run.root, "wave.cost", |_| {
            wave_cost(&mut reset_fork(&built.interp, &inputs.pre)?, |s| {
                fixed_pass(s, &inputs).map(drop)
            })
        })?;
        let cycles = COUNT_CYCLES as f64;
        run.report
            .set("wave.bytes_per_cycle", cost.vcd_bytes as f64 / cycles);
        run.report
            .set("wave.changes_per_cycle", cost.changes as f64 / cycles);
        run.report.set("wave.vcd_write_mb_s", cost.write_mb_s);
        run.report.set("wave.vcd_parse_mb_s", cost.parse_mb_s);
    }
    let mut backend = run.backend(&inputs, &built)?;
    let mut fork_base = built.jit.fork();
    let mut open: Box<Opener<'_>> = match &backend {
        Backend::InProcess => Box::new(|| Ok(fork_base.clone_at_snapshot()?)),
        // `session()` returns once the child is spawned; a session is
        // open when it has answered once, as `open_design` has.
        Backend::Aot(sim) => Box::new(|| {
            let mut s = sim.session()?;
            s.counters()?;
            Ok(Box::new(s))
        }),
        Backend::Service {
            endpoint, source, ..
        } => Box::new(|| service_open(endpoint, source)),
    };
    // The oracle once more, through the session backend.
    let frames = &inputs.frames[..inputs.oracle_cycles];
    let got = run.tracer.scope(run.root, "oracle.replay[session]", |_| {
        session_trace(&mut *open()?, &inputs.pre, frames, &inputs.outputs)
    });
    if let Some(got) = run.checks.ok("session backend", got) {
        compare_traces(&mut run.checks, "session backend", &got, &want);
    }
    if let (
        true,
        Backend::Service {
            server,
            endpoint,
            source,
            ..
        },
    ) = (opts.trace, &backend)
    {
        run.server_probes(server, endpoint, source)?;
    }

    // ---- the legs ---------------------------------------------------
    let fork = |sim| -> Result<Box<dyn Session>, GsimError> {
        Ok(Box::new(reset_fork(sim, &inputs.pre)?))
    };
    let mut legs = vec![
        BatchLeg::new("interp", fork(&built.interp)?, &inputs.batch, plan.interp),
        BatchLeg::new("jit", fork(&built.jit)?, &inputs.batch, plan.jit),
    ];
    // Every portable signal, encoded as VCD into a sink that counts the
    // bytes and keeps nothing.
    let mut traced = fork(&built.interp)?;
    traced.trace_start(None, Box::new(VcdWriter::new(CountingWriter::new())))?;
    legs.push(BatchLeg::new("wave", traced, &inputs.batch, plan.wave));
    if !matches!(backend, Backend::InProcess) {
        let mut s = open()?;
        s.run_scenario(&inputs.pre)?;
        let batch = inputs.session_batch.as_ref().unwrap_or(&inputs.batch);
        legs.push(BatchLeg::new("session", s, batch, plan.session));
    }
    if let Some(mt2) = built.mt2.as_ref().filter(|_| plan.mt2 > 0.0) {
        legs.push(BatchLeg::new("2t", fork(mt2)?, &inputs.batch, plan.mt2));
    }
    let service = matches!(backend, Backend::Service { .. });
    if opts.trace && !service {
        // The interpreter's leg once more with tracing off (one span
        // per segment); svc_closed compares its requests instead (one
        // span per request).
        legs.push(
            BatchLeg::new(
                "untraced",
                fork(&built.interp)?,
                &inputs.batch,
                plan.untraced,
            )
            .untraced(),
        );
    }
    let clients = if service {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2)
    } else {
        1
    };
    let work = ClientWork {
        pre: &inputs.pre,
        frames: &inputs.frames,
        lifecycles: &lifecycles,
        probe: inputs.probe,
        request_slice: plan.requests / SEGMENTS as f64,
        lifecycle_slice: plan.lifecycles / SEGMENTS as f64,
        untraced_slice: if service {
            plan.untraced / SEGMENTS as f64
        } else {
            0.0
        },
        round_span: AtomicU64::new(0),
    };
    run.report.set("setup_s", secs(started));
    let compile_slice = plan.compile / SEGMENTS as f64;
    let mut extra = || {
        compile
            .as_mut()
            .map_or(Ok(()), |c| c.segment(compile_slice))
    };
    let mut logs = timed_rounds(
        run, &mut legs, &mut extra, &backend, &mut *open, &work, clients,
    )?;
    drop(open);
    if let Some(c) = compile {
        c.finish(&mut run.report);
    }

    // ---- report -----------------------------------------------------
    let closing = run.tracer.begin(run.root, "harness.report");
    let mut rates = std::collections::BTreeMap::new();
    for leg in legs {
        let (name, rate, mut session) = leg.finish();
        if name == "wave" {
            session.trace_stop()?;
        }
        rates.insert(name, rate);
    }
    let (interp, jit, wave) = (&rates["interp"], &rates["jit"], &rates["wave"]);
    run.report.set_summary("sim_hz", interp.hz);
    run.report.set_summary("sim_hz_jit", jit.hz);
    run.report
        .set_summary("sim_hz_session", rates.get("session").unwrap_or(jit).hz);
    run.report.set_summary("trace_hz", wave.hz);
    let instrs = run
        .report
        .get("sim.instrs_per_cycle")
        .unwrap_or(0.0)
        .max(1.0);
    for (suffix, r) in [("", interp), ("_jit", jit)] {
        let ns = 1e9 * r.secs / r.cycles as f64;
        run.report.set(&format!("sim.ns_per_cycle{suffix}"), ns);
        run.report
            .set(&format!("sim.ns_per_instr{suffix}"), ns / instrs);
    }
    run.report.set(
        "wave.traced_over_untraced",
        wave.hz.median / interp.hz.median,
    );
    if let (Some(r), Backend::Aot(_)) = (rates.get("session"), &backend) {
        run.report.set_summary("codegen.sim_hz_aot", r.hz);
    }
    if let Some(r) = rates.get("2t") {
        run.report.set_summary("sim.hz_2t", r.hz);
        run.report
            .set("sim.mt2_over_1t", r.hz.median / interp.hz.median);
    }
    for log in &mut logs {
        run.checks.merge(std::mem::take(&mut log.checks));
        run.tracer.extend(std::mem::take(&mut log.spans));
    }
    let stats = pool(&logs).map_err(|e| GsimError::Backend(e.to_string()))?;
    run.report.set_summary("step_p50_us", stats.step_pass_us);
    run.report.set_n(
        "session.step_req_p50_us",
        stats.step_p50_us,
        stats.step_samples,
    );
    run.report
        .set_n("session.step_p99_us", stats.step_p99_us, stats.step_samples);
    run.report.set_n(
        "session.open_warm_ms",
        stats.open_p50_ms,
        stats.open_samples,
    );
    run.report
        .set_summary("sessions_per_s", stats.sessions_per_s);
    if opts.trace {
        // Traced ÷ untraced rate of the same loop (on the service, of
        // the single requests).
        let ratio = match (stats.untraced_p50_us, rates.get("untraced")) {
            (Some(untraced_us), _) => untraced_us / stats.step_p50_us,
            (None, Some(untraced)) => interp.hz.median / untraced.hz.median,
            (None, None) => {
                return Err(GsimError::Backend("no untraced leg in a traced run".into()))
            }
        };
        run.report.set("harness.trace_overhead", ratio);
    }
    if let Backend::Service { server, .. } = &mut backend {
        run.report
            .set_n("server.open_hit_ms", stats.open_p50_ms, stats.open_samples);
        stop_server(server);
    }
    drop(backend);
    run.tracer.end(closing);
    let rss =
        peak_rss_mib().ok_or_else(|| GsimError::Io("no VmHWM in /proc/self/status".into()))?;
    run.report.set("peak_rss_mb", rss);
    Ok(())
}

/// Writes the span file and prints each layer's self time.
fn finish_trace(run: &Run<'_>, out_dir: &Path) -> Result<(), String> {
    let mut spans = run.tracer.take();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let path = out_dir.join(format!("trace_{}.json", run.opts.workload.name()));
    write_json(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    let b = breakdown(&spans);
    println!("# trace {} ({} spans)", path.display(), spans.len());
    println!(
        "# root span covered by its children: {:.1} %",
        b.root_child_coverage * 100.0
    );
    for (layer, ns) in &b.layer_self_ns {
        println!("# self_time {layer} {:.6} s", *ns as f64 / 1e9);
    }
    Ok(())
}
