//! Design source → ready simulators, timed from outside.
//!
//! An untraced run goes through the facades a user calls. A traced run
//! calls each layer's public function on its own, inside a span, in the
//! order `gsim_passes::run` and `Simulator::compile` use, so that each
//! layer's share of `compile_s` can be read off.

use crate::inputs::Source;
use crate::metrics::Report;
use crate::span::{SpanId, Tracer};
use crate::stats::{secs, summarize};
use gsim::{compile_firrtl, OptOptions, Preset};
use gsim_graph::Graph;
use gsim_passes::{bitsplit, inline, redundant, simplify};
use gsim_sim::{GsimError, SimOptions, Simulator};
use std::time::Instant;

pub struct Built {
    /// The design as given (what the reference interpreter runs).
    pub graph: Graph,
    /// After the pass pipeline (what the AoT backend is built from).
    pub optimized: Graph,
    pub interp: Simulator,
    pub jit: Simulator,
    /// `EssentialMt(2)`; traced runs only.
    pub mt2: Option<Simulator>,
}

fn parse_error(e: impl std::fmt::Display) -> GsimError {
    GsimError::Parse(e.to_string())
}

/// `compile_s` of a design that compiles in about a millisecond: the
/// median of `compile_firrtl` calls, a few in every round of the run,
/// so that — like the rates — it does not hang on one moment's speed of
/// the host.
pub struct CompileSampler<'s> {
    source: &'s str,
    samples: Vec<f64>,
}

impl CompileSampler<'_> {
    /// Compiles again and again for this round's share (once at least).
    pub fn segment(&mut self, secs_per_round: f64) -> Result<(), GsimError> {
        let begun = Instant::now();
        while self.samples.is_empty() || secs(begun) < secs_per_round {
            let t = Instant::now();
            compile_firrtl(self.source, Preset::Gsim)?;
            self.samples.push(secs(t));
        }
        Ok(())
    }

    pub fn finish(self, report: &mut Report) {
        report.set_summary("compile_s", summarize(&self.samples));
    }
}

/// The untraced path, through the facades a user calls.
///
/// FIRRTL designs compile in about a millisecond; their `compile_s` is
/// sampled during the timed rounds by the returned [`CompileSampler`].
/// The xs core takes ~6 s, almost all of it passes, and both engines
/// need the optimized graph, so it is compiled once through the two
/// calls `Compiler::build` makes (`gsim_passes::run`,
/// `Simulator::compile`), which sets `compile_s`, and the graph is
/// shared.
pub fn build_untraced<'s>(
    source: &'s Source,
    report: &mut Report,
) -> Result<(Built, Option<CompileSampler<'s>>), GsimError> {
    let passes = OptOptions::all().pass_options();
    match source {
        Source::Graph(g) => {
            let t = Instant::now();
            let (optimized, _) = gsim_passes::run(g.clone(), &passes);
            let interp = Simulator::compile(&optimized, &SimOptions::default())?;
            report.set("compile_s", secs(t));
            let jit = Simulator::compile(&optimized, &SimOptions::threaded())?;
            let built = Built {
                graph: g.clone(),
                optimized,
                interp,
                jit,
                mt2: None,
            };
            Ok((built, None))
        }
        Source::Firrtl(src) => {
            let (interp, _) = compile_firrtl(src, Preset::Gsim)?;
            let (jit, _) = compile_firrtl(src, Preset::GsimJit)?;
            let graph = gsim_firrtl::compile(src).map_err(GsimError::Parse)?;
            let (optimized, _) = gsim_passes::run(graph.clone(), &passes);
            let built = Built {
                graph,
                optimized,
                interp,
                jit,
                mt2: None,
            };
            let sampler = CompileSampler {
                source: src,
                samples: Vec::new(),
            };
            Ok((built, Some(sampler)))
        }
    }
}

/// Runs one pass inside a span that records nodes and edges before and
/// after, and returns the seconds it took.
fn pass(
    tracer: &Tracer,
    parent: SpanId,
    name: &str,
    graph: &mut Graph,
    f: impl FnOnce(&mut Graph) -> usize,
) -> (f64, usize) {
    let (nodes_in, edges_in) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    let open = tracer.begin(parent, name);
    let t = Instant::now();
    let applied = f(graph);
    let dt = secs(t);
    tracer.end_with(
        open,
        vec![
            ("nodes_in", nodes_in),
            ("edges_in", edges_in),
            ("nodes_out", graph.num_nodes() as u64),
            ("edges_out", graph.num_edges() as u64),
            ("applied", applied as u64),
        ],
    );
    (dt, applied)
}

/// The pass pipeline of `gsim_passes::run` under `PassOptions::all()`,
/// pass by pass. Sets the `passes.*` metrics.
pub fn passes_by_layer(
    tracer: &Tracer,
    parent: SpanId,
    mut graph: Graph,
    report: &mut Report,
) -> Graph {
    let open = tracer.begin(parent, "passes.run");
    let id = open.id();
    let nodes_in = graph.num_nodes();
    let elim = |g: &mut Graph| {
        let r = redundant::eliminate(g);
        r.aliases + r.dead
    };
    let (simplify_s, _) = pass(
        tracer,
        id,
        "passes.simplify",
        &mut graph,
        simplify::simplify,
    );
    let (mut redundant_s, _) = pass(tracer, id, "passes.redundant", &mut graph, elim);
    let (inline_s, inlined) = pass(
        tracer,
        id,
        "passes.inline",
        &mut graph,
        inline::inline_cheap,
    );
    redundant_s += pass(tracer, id, "passes.redundant", &mut graph, elim).0;
    let (extract_s, _) = pass(
        tracer,
        id,
        "passes.extract",
        &mut graph,
        inline::extract_common,
    );
    let (bitsplit_s, bit_split) = pass(tracer, id, "passes.bitsplit", &mut graph, bitsplit::split);
    let cleanup_s = pass(tracer, id, "passes.cleanup", &mut graph, |g| {
        simplify::simplify(g) + elim(g)
    })
    .0;
    tracer.end(open);
    report.set("passes.simplify_s", simplify_s);
    report.set("passes.redundant_s", redundant_s);
    report.set("passes.inline_s", inline_s);
    report.set("passes.extract_s", extract_s);
    report.set("passes.bitsplit_s", bitsplit_s);
    report.set("passes.cleanup_s", cleanup_s);
    report.set(
        "passes.total_s",
        simplify_s + redundant_s + inline_s + extract_s + bitsplit_s + cleanup_s,
    );
    report.set("passes.nodes_in", nodes_in as f64);
    report.set("passes.nodes_out", graph.num_nodes() as f64);
    report.set("passes.edges_out", graph.num_edges() as f64);
    report.set("passes.inlined", inlined as f64);
    report.set("passes.bit_split", bit_split as f64);
    graph
}

/// The traced path: front end, passes, partition and the three engine
/// builds, each in its own span. Sets the `firrtl.*`, `passes.*`,
/// `partition.*` and static `sim.*` metrics.
pub fn build_by_layer(
    source: &Source,
    tracer: &Tracer,
    parent: SpanId,
    report: &mut Report,
) -> Result<Built, GsimError> {
    let graph = match source {
        Source::Graph(g) => g.clone(),
        Source::Firrtl(src) => {
            let t = Instant::now();
            let circuit = tracer
                .scope(parent, "firrtl.parse", |_| gsim_firrtl::parse(src))
                .map_err(parse_error)?;
            report.set("firrtl.parse_s", secs(t));
            let t = Instant::now();
            let graph = tracer
                .scope(parent, "firrtl.lower", |_| gsim_firrtl::lower(&circuit))
                .map_err(parse_error)?;
            report.set("firrtl.lower_s", secs(t));
            report.set("firrtl.src_bytes", src.len() as f64);
            report.set("firrtl.nodes_out", graph.num_nodes() as f64);
            graph
        }
    };
    // `Compiler::build` clones the caller's graph before the passes
    // mutate it; on the xs core that deep copy is ~1 s of `compile_s`.
    let working = tracer.scope(parent, "graph.clone", |_| graph.clone());
    let optimized = passes_by_layer(tracer, parent, working, report);

    // `Simulator::compile` partitions internally; the separate call
    // here is what exposes the partitioner's time and shape.
    let t = Instant::now();
    let partition = tracer.scope(parent, "partition.build", |_| {
        gsim_partition::build(&optimized, &SimOptions::default().partition)
    });
    report.set("partition.build_s", secs(t));
    report.set("partition.supernodes", partition.len() as f64);
    report.set("partition.max_size", partition.max_supernode_size() as f64);

    let t = Instant::now();
    let interp = tracer.scope(parent, "sim.compile[interp]", |_| {
        Simulator::compile(&optimized, &SimOptions::default())
    })?;
    report.set("sim.compile_s", secs(t));
    let jit = tracer.scope(parent, "sim.compile[jit]", |_| {
        Simulator::compile(&optimized, &SimOptions::threaded())
    })?;
    let mt2 = tracer.scope(parent, "sim.compile[2t]", |_| {
        Simulator::compile(&optimized, &SimOptions::essential_mt(2))
    })?;
    report.set("sim.lowering_ms", jit.lowering_time().as_secs_f64() * 1e3);
    report.set("sim.instrs", interp.num_instrs() as f64);
    report.set("sim.image_kib", interp.image_units() as f64 * 16.0 / 1024.0);
    report.set("sim.state_kib", interp.state_bytes() as f64 / 1024.0);
    report.set(
        "sim.fused_pairs",
        f64::from(interp.fusion_stats().fused_pairs()),
    );
    Ok(Built {
        graph,
        optimized,
        interp,
        jit,
        mt2: Some(mt2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Workload};
    use gsim::Compiler;

    /// The two replicas in this file (the xs untraced path and the
    /// pass-by-pass path) must build what the `Compiler` facade builds.
    #[test]
    fn both_paths_match_the_compiler_facade() {
        let inputs = generate(Workload::XsLinux, 1, true);
        let Source::Graph(g) = &inputs.source else {
            panic!("xs is graph-built")
        };
        let (_, facade) = Compiler::new(g).preset(Preset::Gsim).build().unwrap();
        let tracer = Tracer::new(true, Instant::now());
        for built in [
            build_untraced(&inputs.source, &mut Report::default())
                .unwrap()
                .0,
            build_by_layer(&inputs.source, &tracer, 0, &mut Report::default()).unwrap(),
        ] {
            assert_eq!(built.optimized.num_nodes(), facade.nodes_after);
            assert_eq!(built.optimized.num_edges(), facade.edges_after);
            assert_eq!(built.interp.num_supernodes(), facade.supernodes);
            assert_eq!(built.interp.num_instrs(), facade.instrs);
        }
        let names: Vec<String> = tracer.take().into_iter().map(|s| s.name).collect();
        assert!(names.contains(&"passes.bitsplit".to_string()), "{names:?}");
    }
}
