//! Set-up of one run: the oracle, the count pass, the session backend,
//! and the fixed-count probes a traced run adds.

use crate::checks::{compare_traces, reference_trace, session_trace, Checks};
use crate::inputs::{Batch, Inputs, Source, Workload, CHUNK_FRAMES};
use crate::metrics::Report;
use crate::pipeline::Built;
use crate::run::Options;
use crate::span::{SpanId, Tracer};
use crate::stats::{secs, summarize};
use gsim::{ClientSession, Compiler, Endpoint, Preset, Server, ServerConfig};
use gsim_codegen::{AotOptions, AotSim, ArtifactCache};
use gsim_sim::{Counters, GsimError, Scenario, Session, Simulator, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cycles of the fixed pass that yields the count-type metrics; fixed
/// (four chunks), so the counts repeat exactly for a seed.
pub const COUNT_CYCLES: u64 = 4 * CHUNK_FRAMES as u64;

/// Samples of each fixed-count latency probe of a traced run.
const PROBE_SAMPLES: usize = 2000;
const PROBE_SAMPLES_SLOW: usize = 32;

/// The workload's session backend, once it is up.
pub enum Backend {
    InProcess,
    Aot(AotSim),
    Service {
        server: Server,
        endpoint: Endpoint,
        source: String,
    },
}

/// Connects and opens the already-compiled design: a cache hit.
pub fn service_open(endpoint: &Endpoint, source: &str) -> Result<Box<dyn Session>, GsimError> {
    let mut c = ClientSession::connect(endpoint)?;
    let info = c.open_design(source, "aot")?;
    if info.status != "hit" {
        return Err(GsimError::Backend(format!(
            "warm open_design answered {:?}, not a cache hit",
            info.status
        )));
    }
    Ok(Box::new(c))
}

fn p50(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Times `n` calls of `f`, one sample each, in the given unit per
/// second (1e6 = µs).
fn probe<E>(n: usize, per_s: f64, mut f: impl FnMut() -> Result<(), E>) -> Result<Vec<f64>, E> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f()?;
        out.push(secs(t) * per_s);
    }
    Ok(out)
}

/// A fresh session of `sim` with the workload's loads and reset applied.
pub fn reset_fork(sim: &Simulator, pre: &Scenario) -> Result<Simulator, GsimError> {
    let mut s = sim.fork();
    Session::run_scenario(&mut s, pre)?;
    Ok(s)
}

/// The fixed pass: exactly [`COUNT_CYCLES`] cycles of the workload's
/// stimulus on a session that was just reset. Returns the outputs
/// after them.
pub fn fixed_pass(s: &mut dyn Session, inputs: &Inputs) -> Result<Vec<Value>, GsimError> {
    match &inputs.batch {
        Batch::Chunks(chunks) => {
            for c in chunks
                .iter()
                .cycle()
                .take(COUNT_CYCLES as usize / CHUNK_FRAMES)
            {
                s.run_scenario(c)?;
            }
        }
        Batch::Program { .. } => s.step(COUNT_CYCLES)?,
    }
    inputs.outputs.iter().map(|o| s.peek(o)).collect()
}

pub struct Run<'a> {
    pub opts: &'a Options,
    pub tracer: Tracer,
    pub root: SpanId,
    pub report: Report,
    pub checks: Checks,
    /// This run's scratch directory under `benchmark/out`.
    pub scratch: PathBuf,
}

impl Run<'_> {
    /// Set-up step 2: the reference interpreter's outputs over the
    /// first cycles, against every in-process engine.
    pub fn oracle(&mut self, inputs: &Inputs, built: &Built) -> Result<Vec<Vec<Value>>, String> {
        let frames = &inputs.frames[..inputs.oracle_cycles];
        let t = Instant::now();
        let want = self.tracer.scope(self.root, "graph.refinterp", |_| {
            reference_trace(&built.graph, &inputs.pre, frames, &inputs.outputs)
        })?;
        let cycles = inputs.pre.cycles() + frames.len() as u64;
        self.report
            .set("graph.refinterp_hz", cycles as f64 / secs(t));
        let engines = [
            ("interp", Some(&built.interp)),
            ("jit", Some(&built.jit)),
            ("2t", built.mt2.as_ref()),
        ];
        for (name, sim) in engines {
            let Some(sim) = sim else { continue };
            let got = self
                .tracer
                .scope(self.root, &format!("oracle.replay[{name}]"), |_| {
                    session_trace(&mut sim.fork(), &inputs.pre, frames, &inputs.outputs)
                });
            if let Some(got) = self.checks.ok(name, got) {
                compare_traces(&mut self.checks, name, &got, &want);
            }
        }
        Ok(want)
    }

    /// Set-up step 3: interp and jit over the fixed pass — equal
    /// outputs, equal `Counters` — and the count-type metrics.
    pub fn count_pass(&mut self, inputs: &Inputs, built: &Built) -> Result<(), GsimError> {
        let open = self.tracer.begin(self.root, "sim.count_pass");
        let pass = |sim: &Simulator| -> Result<(Counters, Vec<Value>), GsimError> {
            let mut s = reset_fork(sim, &inputs.pre)?;
            s.reset_counters();
            let out = fixed_pass(&mut s, inputs)?;
            Ok((*s.counters(), out))
        };
        let (c, out) = pass(&built.interp)?;
        let (cj, outj) = pass(&built.jit)?;
        self.tracer.end(open);
        self.checks.check(out == outj, || {
            format!("after {COUNT_CYCLES} cycles interp outputs {out:?}, jit {outj:?}")
        });
        self.checks.check(c == cj, || {
            format!("after {COUNT_CYCLES} cycles interp {c:?}, jit {cj:?}")
        });
        let per_cycle = |x: u64| x as f64 / c.cycles as f64;
        let r = &mut self.report;
        r.set("sim.node_evals_per_cycle", per_cycle(c.node_evals));
        r.set(
            "sim.supernode_evals_per_cycle",
            per_cycle(c.supernode_evals),
        );
        r.set("sim.aexam_checks_per_cycle", per_cycle(c.aexam_checks));
        r.set("sim.activation_ops_per_cycle", per_cycle(c.activation_ops));
        r.set("sim.value_changes_per_cycle", per_cycle(c.value_changes));
        r.set("sim.instrs_per_cycle", per_cycle(c.instrs_executed));
        r.set(
            "sim.activity_factor",
            c.activity_factor(built.optimized.num_nodes()),
        );
        r.set(
            "sim.useful_eval_ratio",
            c.value_changes as f64 / c.node_evals.max(1) as f64,
        );
        Ok(())
    }

    /// Set-up step 4: bring up the session backend.
    pub fn backend(&mut self, inputs: &Inputs, built: &Built) -> Result<Backend, GsimError> {
        let Source::Firrtl(source) = &inputs.source else {
            return Ok(Backend::InProcess);
        };
        if self.opts.trace {
            self.codegen_by_layer(built)?;
        }
        if inputs.workload == Workload::StucoreCoremark {
            let (sim, _) = self.tracer.scope(self.root, "codegen.build_aot", |_| {
                Compiler::new(&built.graph).preset(Preset::Gsim).build_aot()
            })?;
            return Ok(Backend::Aot(sim));
        }
        let cache_dir = self.scratch.join("cache");
        let server = self.tracer.scope(self.root, "server.start", |_| {
            Server::start(ServerConfig::new(
                Endpoint::Tcp("127.0.0.1:0".into()),
                &cache_dir,
            ))
        })?;
        let endpoint = server.endpoint().clone();
        // The first open of the design pays emit + rustc: a cache miss.
        let t = Instant::now();
        let info = self.tracer.scope(self.root, "server.open_miss", |_| {
            ClientSession::connect(&endpoint)
                .map_err(GsimError::from)
                .and_then(|mut c| c.open_design(source, "aot"))
        })?;
        self.report.set("server.open_miss_s", secs(t));
        self.checks.check(info.status == "miss", || {
            format!("first open_design answered {:?}, not a miss", info.status)
        });
        Ok(Backend::Service {
            server,
            endpoint,
            source: source.clone(),
        })
    }

    /// Traced runs: the AoT layer on its own, through a private
    /// artifact cache — one miss (emit + `rustc`), then hits.
    fn codegen_by_layer(&mut self, built: &Built) -> Result<(), GsimError> {
        let cache = ArtifactCache::new(self.scratch.join("cache-local"), 8)?;
        let opts = AotOptions::default();
        let aot = self.tracer.scope(self.root, "codegen.compile[miss]", |_| {
            cache.compile(&built.optimized, &opts)
        })?;
        self.checks.check(!aot.from_cache, || {
            "a fresh artifact cache answered a hit".into()
        });
        let r = &mut self.report;
        r.set("codegen.emit_s", aot.emit.emit_time.as_secs_f64());
        r.set("codegen.rustc_s", aot.rustc_time.as_secs_f64());
        r.set("codegen.code_kib", aot.emit.code_bytes as f64 / 1024.0);
        r.set("codegen.binary_kib", aot.binary_bytes as f64 / 1024.0);
        let open = self.tracer.begin(self.root, "codegen.probes");
        let mut all_hits = true;
        let hit_ms = probe(PROBE_SAMPLES_SLOW, 1e3, || {
            cache
                .compile(&built.optimized, &opts)
                .map(|sim| all_hits &= sim.from_cache)
        })?;
        let spawn_ms = probe(PROBE_SAMPLES_SLOW, 1e3, || -> Result<(), GsimError> {
            aot.session()?.counters().map(|_| ())
        })?;
        let mut s = aot.session()?;
        let rtt_us = probe(PROBE_SAMPLES, 1e6, || s.step(1))?;
        self.tracer.end(open);
        self.checks.check(all_hits, || {
            "a published artifact was compiled again".into()
        });
        self.report
            .set_n("codegen.cache_hit_ms", p50(&hit_ms), hit_ms.len());
        self.report
            .set_n("codegen.spawn_ms", p50(&spawn_ms), spawn_ms.len());
        self.report
            .set_n("codegen.pipe_rtt_us", p50(&rtt_us), rtt_us.len());
        Ok(())
    }

    /// Traced runs: fixed-count latency probes of the `sim` layer, the
    /// floor under `step_p50_us`.
    pub fn sim_probes(&mut self, inputs: &Inputs, built: &Built) -> Result<(), GsimError> {
        let open = self.tracer.begin(self.root, "sim.probes");
        let mut s = reset_fork(&built.interp, &inputs.pre)?;
        let s: &mut dyn Session = &mut s;
        let step_ns = probe(PROBE_SAMPLES, 1e9, || s.step(1))?;
        let fork_us = probe(PROBE_SAMPLES_SLOW, 1e6, || s.clone_at_snapshot().map(drop))?;
        let snap_us = probe(PROBE_SAMPLES_SLOW, 1e6, || s.snapshot().map(|_| ()))?;
        self.tracer.end(open);
        self.report
            .set_n("sim.step1_ns", p50(&step_ns), step_ns.len());
        self.report
            .set_n("sim.fork_us", p50(&fork_us), fork_us.len());
        self.report
            .set_n("sim.snapshot_us", p50(&snap_us), snap_us.len());
        Ok(())
    }

    /// Traced runs: what one wire round trip costs without a child
    /// process behind it, and the service's own counters.
    pub fn server_probes(
        &mut self,
        server: &Server,
        endpoint: &Endpoint,
        source: &str,
    ) -> Result<(), GsimError> {
        let open = self.tracer.begin(self.root, "server.probes");
        let connect_us = probe(PROBE_SAMPLES_SLOW, 1e6, || {
            ClientSession::connect(endpoint).map(drop)
        })?;
        let rtt = |backend: &str| -> Result<(f64, f64), GsimError> {
            let mut c = ClientSession::connect(endpoint)?;
            c.open_design(source, backend)?;
            let step = p50(&probe(PROBE_SAMPLES, 1e6, || c.step(1))?);
            let peek = p50(&probe(PROBE_SAMPLES, 1e6, || c.peek("out").map(drop))?);
            Ok((step, peek))
        };
        let (interp_us, _) = rtt("interp")?;
        let (aot_us, peek_us) = rtt("aot")?;
        self.tracer.end(open);
        let r = &mut self.report;
        r.set_n("server.connect_us", p50(&connect_us), connect_us.len());
        r.set_n("server.step_rtt_interp_us", interp_us, PROBE_SAMPLES);
        r.set_n("server.step_rtt_aot_us", aot_us, PROBE_SAMPLES);
        r.set_n("server.peek_rtt_us", peek_us, PROBE_SAMPLES);
        let step1_us = r.get("sim.step1_ns").unwrap_or(0.0) / 1e3;
        r.set("server.wire_share_us", interp_us - step1_us);
        let stats = server.stats();
        r.set("server.cache_hits", stats.cache.hits as f64);
        r.set("server.cache_misses", stats.cache.misses as f64);
        r.set("server.compiles", stats.cache.compiles as f64);
        r.set("server.fallbacks", stats.fallbacks as f64);
        r.set("server.panics", stats.panics as f64);
        Ok(())
    }
}

/// Waits (up to 10 s) until the server has at most `held` sessions
/// left: it tears a session down, and reaps its AoT child, after the
/// client has gone.
pub fn wait_for_sessions(server: &Server, held: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().active > held && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Stops the server once every session, and so every child, is gone.
pub fn stop_server(server: &mut Server) {
    wait_for_sessions(server, 0);
    server.stop();
}
