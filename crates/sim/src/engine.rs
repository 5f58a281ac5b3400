//! The [`Simulator`]: compiled-design execution engines.
//!
//! Each engine family is a *thin driver* here — the actual
//! eval/commit/activation machinery lives in [`crate::executor`] and is
//! shared between the sequential and parallel paths. The drivers only
//! decide *what* to sweep (all tasks, activated supernodes, level
//! slices) and *where* the state lives (plain words or shared atomics).

use crate::compile::{self, Compiled, TaskKind};
use crate::counters::Counters;
use crate::exec::{AtomicMems, Ctx};
use crate::executor::{self, ActiveBits, NoActivation, SharedBits, SpinBarrier};
use crate::scenario::Scenario;
use crate::session::{GsimError, MemoryInfo, Session, SignalInfo, SnapshotId};
use crate::storage::{AtomicStateRef, MemArena, StateStore};
use crate::threaded::{self, ThreadedProg};
use crate::{CompileError, EngineKind, SimOptions};
use gsim_graph::Graph;
use gsim_value::Value;
use gsim_wave::{Tracer, WaveSignal, WaveSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scenario's frames with every poke resolved to its input's node
/// id, so the engines drive stimulus without a name lookup or an
/// allocation per cycle.
#[derive(Debug, Default)]
struct Frames {
    /// Every frame's `(node id, value)` pokes, back to back.
    pokes: Vec<(u32, u64)>,
    /// End of frame `k`'s pokes in `pokes`.
    ends: Vec<usize>,
}

impl Frames {
    /// Frame `k`'s pokes; empty past the last frame (inputs hold).
    fn get(&self, k: u64) -> &[(u32, u64)] {
        let k = k as usize;
        let Some(&end) = self.ends.get(k) else {
            return &[];
        };
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.pokes[start..end]
    }
}

/// Applies one resolved frame: write each poked value and activate the
/// input's reader supernodes on change — [`Simulator::poke`] expressed
/// over the generic stores, so the parallel engines can drive stimulus
/// from inside their thread scope.
fn apply_frame<S: StateStore, A: ActiveBits>(
    c: &Compiled,
    st: &mut S,
    flags: &mut A,
    frame: &[(u32, u64)],
) {
    for &(id, v) in frame {
        let slot = c.node_slot[id as usize];
        if slot.words == 0 {
            continue;
        }
        let masked = if slot.width >= 64 {
            v
        } else {
            v & ((1u64 << slot.width) - 1)
        };
        let mut changed = false;
        if st.load(slot.off as usize) != masked {
            st.store(slot.off as usize, masked);
            changed = true;
        }
        for i in 1..slot.words as usize {
            let off = slot.off as usize + i;
            if st.load(off) != 0 {
                st.store(off, 0);
                changed = true;
            }
        }
        if changed {
            if let Some(&(lo, hi)) = c.input_act.get(&id) {
                for &sn in &c.act_list[lo as usize..hi as usize] {
                    flags.set_bit(sn);
                }
            }
        }
    }
}

/// A compiled, runnable simulation.
///
/// See the crate docs for the engine families. All engines share this
/// interface; behaviour is bit-identical across engines (pinned by
/// differential tests against the reference interpreter).
pub struct Simulator {
    /// The compiled design, read-only at runtime and shared (`Arc`)
    /// between a simulator and its [`Simulator::fork`] children, so a
    /// fork costs state copies only — never a recompile.
    c: Arc<Compiled>,
    opts: SimOptions,
    state: Vec<u64>,
    scratch: Vec<u64>,
    mems: Vec<MemArena>,
    /// Supernode active bits (essential engines).
    flags: Vec<u64>,
    /// Supernodes evaluated this cycle, as a bitset (register commit).
    fired: Vec<u64>,
    /// Register-info indices per supernode.
    supernode_regs: Vec<Vec<u32>>,
    dirty_mems: Vec<bool>,
    /// Pre-edge reset-signal snapshot scratch (one flag per group).
    reset_snap: Vec<bool>,
    counters: Counters,
    cycle: u64,
    /// The lowered threaded-code program, present exactly when the
    /// engine is [`EngineKind::Threaded`]. When present, `state` is the
    /// combined `[state | scratch | consts]` arena the records index
    /// into; the persistent state occupies the prefix at unchanged
    /// offsets, so every poke/peek/commit/snapshot path works untouched.
    /// Shared (`Arc`) with forks, like the compiled design.
    threaded: Option<Arc<ThreadedProg>>,
    /// Saved states for [`Session::snapshot`] / [`Session::restore`].
    snapshots: Vec<SimSnapshot>,
    /// Active waveform capture ([`Simulator::trace_start`]). `None`
    /// when tracing is off — the *only* cost the untraced hot path
    /// pays is this option check once per batched run, not per
    /// store or per cycle.
    trace: Option<SimTrace>,
}

/// One active capture: the traced signals' state slots plus the
/// change-detecting [`Tracer`] feeding the user's sink.
struct SimTrace {
    /// `(state offset, words)` per traced signal, aligned with the
    /// signal list the tracer was built from.
    slots: Vec<(usize, usize)>,
    tracer: Tracer,
}

/// One saved simulation state: everything a later cycle can observe.
#[derive(Debug, Clone)]
struct SimSnapshot {
    state: Vec<u64>,
    mems: Vec<MemArena>,
    flags: Vec<u64>,
    fired: Vec<u64>,
    dirty_mems: Vec<bool>,
    counters: Counters,
    cycle: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("engine", &self.opts.engine)
            .field("supernodes", &self.c.num_supernodes)
            .field("state_words", &self.c.state_words)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl Simulator {
    /// Compiles `graph` for execution under `opts`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for invalid graphs or a zero thread
    /// count.
    pub fn compile(graph: &Graph, opts: &SimOptions) -> Result<Simulator, CompileError> {
        let mut c = compile::compile(graph, opts)?;
        let mems = std::mem::take(&mut c.mems);
        let threaded = (opts.engine == EngineKind::Threaded).then(|| Arc::new(threaded::lower(&c)));
        let state = match &threaded {
            // Combined arena: persistent state in the prefix (same
            // offsets as the plain engines), scratch and the const
            // pool behind it.
            Some(p) => {
                let mut arena = vec![0u64; p.arena_words];
                arena[p.const_base as usize..].copy_from_slice(&c.consts);
                arena
            }
            None => vec![0u64; c.state_words],
        };
        let scratch = vec![0u64; c.scratch_words.max(1)];
        let flag_words = c.num_supernodes.div_ceil(64);
        let mut flags = vec![0u64; flag_words.max(1)];
        // Everything starts active: the first cycle evaluates the whole
        // design, establishing the baseline values.
        for (i, w) in flags.iter_mut().enumerate() {
            let base = i * 64;
            let valid = c.num_supernodes.saturating_sub(base).min(64);
            *w = if valid == 64 {
                u64::MAX
            } else {
                (1u64 << valid) - 1
            };
        }
        let fired = vec![0u64; flag_words.max(1)];
        let mut supernode_regs = vec![Vec::new(); c.supernode_tasks.len()];
        for (sn, &(lo, hi)) in c.supernode_tasks.iter().enumerate() {
            for task in &c.tasks[lo as usize..hi as usize] {
                if matches!(task.kind, TaskKind::Reg) {
                    if let Some(ri) = c.reg_infos.iter().position(|r| r.node == task.node) {
                        supernode_regs[sn].push(ri as u32);
                    }
                }
            }
        }
        let dirty_mems = vec![false; mems.len()];
        Ok(Simulator {
            c: Arc::new(c),
            opts: *opts,
            state,
            scratch,
            mems,
            flags,
            fired,
            supernode_regs,
            dirty_mems,
            reset_snap: Vec::new(),
            counters: Counters::default(),
            cycle: 0,
            threaded,
            snapshots: Vec::new(),
            trace: None,
        })
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runtime cost counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resets the cost counters (not the simulation state).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }

    /// Number of supernodes in the compiled schedule.
    pub fn num_supernodes(&self) -> usize {
        self.c.num_supernodes
    }

    /// Number of levels in the supernode dependency DAG (barriers per
    /// cycle of the parallel essential engine; 0 for other engines).
    pub fn num_supernode_levels(&self) -> usize {
        self.c.supernode_levels.len()
    }

    /// Number of logical bytecode instructions in the compiled design
    /// (a code size proxy for Table IV; fused pairs count once).
    pub fn num_instrs(&self) -> usize {
        self.c.tasks.iter().map(|t| t.n_instrs as usize).sum()
    }

    /// Number of 16-byte encoded units in the execution image's code
    /// arena (multi-operand instructions take two).
    pub fn image_units(&self) -> usize {
        self.c.image.code.len()
    }

    /// What the superinstruction fusion pass collapsed at compile time
    /// (all zero when fusion is disabled).
    pub fn fusion_stats(&self) -> compile::FusionStats {
        self.c.fusion
    }

    /// Bytes of mutable signal state (Table IV's "data size"; memories
    /// excluded, as in the paper).
    pub fn state_bytes(&self) -> usize {
        self.c.state_words * 8
    }

    /// Time spent building the supernode partition.
    pub fn partition_time(&self) -> std::time::Duration {
        self.c.partition_time
    }

    fn node_by_name(&self, name: &str) -> Option<u32> {
        self.c.names.get(name).copied()
    }

    /// Resolves a top-level input's node id, with the error classes
    /// [`Simulator::poke`] reports.
    fn input_id(&self, name: &str) -> Result<u32, GsimError> {
        let id = self
            .node_by_name(name)
            .ok_or_else(|| GsimError::UnknownSignal(name.to_string()))?;
        if !self.c.node_meta[id as usize].2 {
            return Err(GsimError::NotAnInput(name.to_string()));
        }
        Ok(id)
    }

    /// Resolves every poke of `scenario`. A bad name ends the
    /// resolution: the pokes before it are kept, so the run drives
    /// stimulus up to the first error and holds the inputs after it,
    /// and the error is returned beside the frames.
    fn resolve(&self, scenario: &Scenario) -> (Frames, Option<GsimError>) {
        let mut out = Frames {
            pokes: Vec::with_capacity(scenario.frames.iter().map(Vec::len).sum()),
            ends: Vec::with_capacity(scenario.frames.len()),
        };
        for frame in &scenario.frames {
            for (name, v) in frame {
                match self.input_id(name) {
                    Ok(id) => out.pokes.push((id, *v)),
                    Err(e) => {
                        out.ends.push(out.pokes.len());
                        return (out, Some(e));
                    }
                }
            }
            out.ends.push(out.pokes.len());
        }
        (out, None)
    }

    /// The compiled design (crate-internal: lowering tests).
    #[cfg(test)]
    pub(crate) fn compiled(&self) -> &Compiled {
        &self.c
    }

    /// The persistent state prefix (crate-internal: lowering tests).
    #[cfg(test)]
    pub(crate) fn state_prefix(&self) -> &[u64] {
        &self.state[..self.c.state_words]
    }

    /// Pending activation flags (crate-internal: lowering tests).
    #[cfg(test)]
    pub(crate) fn flag_words(&self) -> &[u64] {
        &self.flags
    }

    /// Sets a top-level input by name.
    ///
    /// # Errors
    ///
    /// Returns [`GsimError::UnknownSignal`] or [`GsimError::NotAnInput`].
    pub fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
        let id = self.input_id(name)?;
        let slot = self.c.node_slot[id as usize];
        let fitted = v.zext_or_trunc(slot.width);
        let mut changed = false;
        for (i, &w) in fitted.words().iter().enumerate() {
            let off = slot.off as usize + i;
            if self.state[off] != w {
                self.state[off] = w;
                changed = true;
            }
        }
        if changed {
            if let Some(&(lo, hi)) = self.c.input_act.get(&id) {
                for &sn in &self.c.act_list[lo as usize..hi as usize] {
                    self.flags[(sn >> 6) as usize] |= 1u64 << (sn & 63);
                }
            }
        }
        Ok(())
    }

    /// Sets a top-level input by name from a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`GsimError::UnknownSignal`] or [`GsimError::NotAnInput`].
    pub fn poke_u64(&mut self, name: &str, x: u64) -> Result<(), GsimError> {
        let id = self
            .node_by_name(name)
            .ok_or_else(|| GsimError::UnknownSignal(name.to_string()))?;
        let w = self.c.node_meta[id as usize].0;
        self.poke(name, Value::from_u64(x, w))
    }

    /// Reads any named node's current value.
    pub fn peek(&self, name: &str) -> Option<Value> {
        let id = self.node_by_name(name)?;
        let slot = self.c.node_slot[id as usize];
        let mut ws = vec![0u64; slot.words as usize];
        for (i, w) in ws.iter_mut().enumerate() {
            *w = self.state[slot.off as usize + i];
        }
        Some(Value::from_words(ws, slot.width))
    }

    /// Reads a named node as `u64` (`None` if missing or too wide).
    pub fn peek_u64(&self, name: &str) -> Option<u64> {
        self.peek(name).and_then(|v| v.to_u64())
    }

    /// Loads a memory image (entry `i` at address `i`).
    ///
    /// # Errors
    ///
    /// Returns [`GsimError::UnknownMemory`] or
    /// [`GsimError::MemImageTooLarge`].
    pub fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError> {
        let mem = self
            .mems
            .iter_mut()
            .find(|m| m.name == name)
            .ok_or_else(|| GsimError::UnknownMemory(name.to_string()))?;
        mem.load_image(image)
    }

    /// Reads one memory entry.
    pub fn read_mem(&self, name: &str, addr: u64) -> Option<Value> {
        let mem = self.mems.iter().find(|m| m.name == name)?;
        mem.entry(addr)
            .map(|ws| Value::from_words(ws.to_vec(), mem.width))
    }

    /// Advances one clock cycle.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Advances `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        self.run_frames(n, &Frames::default());
    }

    /// Advances `n` clock cycles, driving `frames.get(k)` before the
    /// `k`-th. The multithreaded engines keep their worker team alive
    /// for the whole run and apply each frame between cycle barriers,
    /// where a `poke`/`run(1)` loop would tear the team down and
    /// respawn it every cycle.
    fn run_frames(&mut self, n: u64, frames: &Frames) {
        if self.trace.is_none() {
            // Untraced hot path: one option check per call, then the
            // engines run exactly the pre-tracing code.
            return self.run_untraced(n, frames, 0);
        }
        // Traced: capture after every cycle. Cycle-at-a-time stepping
        // also makes the multithreaded engines observable per cycle
        // (they only publish their atomic images at scope exit).
        for k in 0..n {
            self.run_untraced(1, frames, k);
            self.capture_trace();
        }
    }

    /// Runs `n` cycles driving `frames.get(first + i)` before cycle
    /// `i` of the run.
    fn run_untraced(&mut self, n: u64, frames: &Frames, first: u64) {
        if n == 0 {
            // No cycle runs, so no worker team is started.
            return;
        }
        match self.opts.engine {
            EngineKind::FullCycle => {
                for k in first..first + n {
                    let mut st: &mut [u64] = &mut self.state;
                    apply_frame(&self.c, &mut st, &mut NoActivation, frames.get(k));
                    self.step_full();
                }
            }
            EngineKind::Essential => self.run_essential(n, frames, first),
            EngineKind::Threaded => {
                for k in first..first + n {
                    let mut st: &mut [u64] = &mut self.state;
                    let mut flags: &mut [u64] = &mut self.flags;
                    apply_frame(&self.c, &mut st, &mut flags, frames.get(k));
                    self.step_threaded();
                }
            }
            EngineKind::FullCycleMt { threads } => {
                self.run_full_mt(n, threads.max(1), frames, first)
            }
            EngineKind::EssentialMt { threads } => {
                self.run_essential_mt(n, threads.max(1), frames, first)
            }
        }
    }

    /// The sequential essential sweep, shared by
    /// [`EngineKind::Essential`] and single-worker
    /// [`EngineKind::EssentialMt`].
    fn run_essential(&mut self, n: u64, frames: &Frames, first: u64) {
        for k in first..first + n {
            let mut st: &mut [u64] = &mut self.state;
            let mut flags: &mut [u64] = &mut self.flags;
            apply_frame(&self.c, &mut st, &mut flags, frames.get(k));
            self.step_essential();
        }
    }

    /// Starts change-driven waveform capture into `sink` (see
    /// [`Session::trace_start`] for the full contract). The traced
    /// set is the portable signal surface ([`Session::signals`]) or
    /// the validated subset `signals`, in request order; the header
    /// and baseline snapshot are emitted immediately at the current
    /// cycle.
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownSignal`] for a subset name outside the
    /// portable surface; [`GsimError::Config`] if a trace is already
    /// active.
    pub fn trace_start(
        &mut self,
        signals: Option<&[String]>,
        sink: Box<dyn WaveSink>,
    ) -> Result<(), GsimError> {
        if self.trace.is_some() {
            return Err(GsimError::Config(
                "a trace is already active on this session".into(),
            ));
        }
        let selected: Vec<(String, u32)> = match signals {
            None => self.c.io_signals.clone(),
            Some(names) => {
                let avail: std::collections::HashMap<&str, u32> = self
                    .c
                    .io_signals
                    .iter()
                    .map(|(n, w)| (n.as_str(), *w))
                    .collect();
                let mut sel = Vec::with_capacity(names.len());
                for n in names {
                    let &w = avail
                        .get(n.as_str())
                        .ok_or_else(|| GsimError::UnknownSignal(n.clone()))?;
                    sel.push((n.clone(), w));
                }
                sel
            }
        };
        let wave_sigs: Vec<WaveSignal> = selected
            .iter()
            .map(|(n, w)| WaveSignal::new(n, *w))
            .collect();
        let slots: Vec<(usize, usize)> = selected
            .iter()
            .map(|(n, _)| {
                let id = self.c.names[n.as_str()];
                let slot = self.c.node_slot[id as usize];
                (slot.off as usize, slot.words as usize)
            })
            .collect();
        let mut tracer = Tracer::new("top", &wave_sigs, sink);
        let state = &self.state;
        tracer.begin(self.cycle, &mut |i, buf| {
            let (off, words) = slots[i];
            buf.extend_from_slice(&state[off..off + words]);
        });
        self.trace = Some(SimTrace { slots, tracer });
        Ok(())
    }

    /// Stops waveform capture, finishing the sink. See
    /// [`Session::trace_stop`].
    ///
    /// # Errors
    ///
    /// [`GsimError::Config`] if no trace is active; [`GsimError::Io`]
    /// for a latched or final sink failure.
    pub fn trace_stop(&mut self) -> Result<(), GsimError> {
        let tr = self
            .trace
            .take()
            .ok_or_else(|| GsimError::Config("no trace is active on this session".into()))?;
        tr.tracer.finish().map_err(|e| GsimError::Io(e.to_string()))
    }

    /// Post-cycle capture: compares every traced signal against the
    /// tracer's shadow and emits change records stamped with the
    /// just-completed cycle. The trace is taken out of `self` for the
    /// duration so the read closure can borrow `self.state`.
    fn capture_trace(&mut self) {
        let Some(mut tr) = self.trace.take() else {
            return;
        };
        {
            let SimTrace { slots, tracer } = &mut tr;
            let state = &self.state;
            tracer.capture(self.cycle, &mut |i, buf| {
                let (off, words) = slots[i];
                buf.extend_from_slice(&state[off..off + words]);
            });
        }
        self.trace = Some(tr);
    }

    /// Time the threaded-code lowering pass took at compile time
    /// (zero for other engines).
    pub fn lowering_time(&self) -> std::time::Duration {
        self.threaded
            .as_ref()
            .map_or(std::time::Duration::ZERO, |p| p.lowering_time)
    }

    /// Saves the complete simulation state (signals, memories, active
    /// bits, cycle count, counters) and returns a handle for
    /// [`Simulator::restore_snapshot`].
    ///
    /// Memory arenas are saved copy-on-write: the snapshot *shares*
    /// each arena's word storage with the live simulation, and the
    /// words are copied only when the live side (or a restore) first
    /// writes to a shared arena. A design whose memories are
    /// read-only ROM images therefore snapshots in O(signal state),
    /// not O(signal state + memories) — see
    /// [`Simulator::snapshot_mem_bytes`] for the measured difference.
    pub fn take_snapshot(&mut self) -> SnapshotId {
        self.snapshots.push(SimSnapshot {
            state: self.state.clone(),
            mems: self.mems.clone(), // CoW: shares arena storage
            flags: self.flags.clone(),
            fired: self.fired.clone(),
            dirty_mems: self.dirty_mems.clone(),
            counters: self.counters,
            cycle: self.cycle,
        });
        SnapshotId::from_raw(self.snapshots.len() as u64 - 1)
    }

    /// Copy-on-write accounting for the snapshot stack: bytes of
    /// memory-arena storage the snapshots actually own privately
    /// versus the bytes an eager deep copy per snapshot would have
    /// duplicated. An arena still sharing its words with the live
    /// simulation costs nothing until one side writes.
    pub fn snapshot_mem_bytes(&self) -> (usize, usize) {
        let mut owned = 0;
        let mut deep = 0;
        for snap in &self.snapshots {
            for (saved, live) in snap.mems.iter().zip(&self.mems) {
                deep += saved.storage_bytes();
                if !saved.shares_storage_with(live) {
                    owned += saved.storage_bytes();
                }
            }
        }
        (owned, deep)
    }

    /// Forks this simulation: a new, independent [`Simulator`] whose
    /// observable state (signals, memories, cycle count, counters)
    /// equals this one's right now. The compiled design and lowered
    /// threaded-code program are shared (`Arc`), and memory arenas
    /// are shared copy-on-write, so a fork costs one signal-state
    /// copy — no recompilation, no memory duplication until a branch
    /// writes. Snapshot handles are session-local and do not carry
    /// over to the fork.
    pub fn fork(&self) -> Simulator {
        Simulator {
            c: Arc::clone(&self.c),
            opts: self.opts,
            state: self.state.clone(),
            scratch: self.scratch.clone(),
            mems: self.mems.clone(), // CoW: shares arena storage
            flags: self.flags.clone(),
            fired: self.fired.clone(),
            supernode_regs: self.supernode_regs.clone(),
            dirty_mems: self.dirty_mems.clone(),
            reset_snap: self.reset_snap.clone(),
            counters: self.counters,
            cycle: self.cycle,
            threaded: self.threaded.clone(),
            snapshots: Vec::new(),
            // Traces are session-local: the fork starts untraced (the
            // Explorer attaches its own per-branch sink).
            trace: None,
        }
    }

    /// Rolls the simulation back to a saved state. Replay after a
    /// restore is bit-identical to the original run under the same
    /// stimulus (pinned by the snapshot round-trip tests).
    ///
    /// # Errors
    ///
    /// Returns [`GsimError::UnknownSnapshot`] for ids this simulator
    /// never issued.
    pub fn restore_snapshot(&mut self, id: SnapshotId) -> Result<(), GsimError> {
        let snap = self
            .snapshots
            .get(id.raw() as usize)
            .ok_or(GsimError::UnknownSnapshot(id.raw()))?
            .clone();
        self.state = snap.state;
        self.mems = snap.mems;
        self.flags = snap.flags;
        self.fired = snap.fired;
        self.dirty_mems = snap.dirty_mems;
        self.counters = snap.counters;
        self.cycle = snap.cycle;
        // The state jumped: a live trace records whatever moved, as
        // the compiled backend's `restore` does, so a subscriber's
        // view stays change-complete.
        self.capture_trace();
        Ok(())
    }

    // ----- sequential full-cycle (Listing 1) -----

    fn step_full(&mut self) {
        {
            let mut ctx = Ctx {
                state: &mut self.state[..],
                scratch: &mut self.scratch[..],
                consts: &self.c.consts,
                mems: &self.mems[..],
            };
            executor::run_task_range(
                &mut ctx,
                &self.c,
                0,
                self.c.tasks.len() as u32,
                &mut self.counters,
            );
        }
        let mut st: &mut [u64] = &mut self.state;
        let mut mems: &mut [MemArena] = &mut self.mems;
        executor::commit_full_cycle(
            &self.c,
            &mut st,
            &mut mems,
            &mut self.counters,
            &mut self.reset_snap,
        );
        self.cycle += 1;
        self.counters.cycles += 1;
    }

    // ----- essential-signal engine (Listings 2-4) -----

    fn step_essential(&mut self) {
        {
            let mut ctx = Ctx {
                state: &mut self.state[..],
                scratch: &mut self.scratch[..],
                consts: &self.c.consts,
                mems: &self.mems[..],
            };
            let mut flags: &mut [u64] = &mut self.flags;
            let mut fired: &mut [u64] = &mut self.fired;
            executor::sweep_essential(
                &self.c,
                &mut ctx,
                &mut flags,
                &mut fired,
                &mut self.counters,
                self.opts.check_multiple_bits,
            );
        }
        let mut st: &mut [u64] = &mut self.state;
        let mut mems: &mut [MemArena] = &mut self.mems;
        let mut flags: &mut [u64] = &mut self.flags;
        let mut fired: &mut [u64] = &mut self.fired;
        executor::commit_essential(
            &self.c,
            &mut st,
            &mut mems,
            &mut flags,
            &mut fired,
            &self.supernode_regs,
            &mut self.dirty_mems,
            &mut self.counters,
            &mut self.reset_snap,
        );
        self.cycle += 1;
        self.counters.cycles += 1;
    }

    // ----- threaded-code essential-signal -----

    fn step_threaded(&mut self) {
        let prog = self
            .threaded
            .as_ref()
            .expect("the threaded engine is always lowered at compile time");
        {
            let mut ctx = threaded::TCtx {
                mem: &mut self.state[..],
                mems: &self.mems[..],
                wide: &self.c.image.wide,
                recs: &prog.records,
                state_words: prog.state_words,
                const_base: prog.const_base,
                changed: false,
            };
            let flags: &mut [u64] = &mut self.flags;
            let fired: &mut [u64] = &mut self.fired;
            threaded::sweep(
                &self.c,
                prog,
                &mut ctx,
                flags,
                fired,
                &mut self.counters,
                self.opts.check_multiple_bits,
            );
        }
        // The commit phase is the essential engine's, verbatim: the
        // state arena's prefix is the plain state vector it expects.
        let mut st: &mut [u64] = &mut self.state;
        let mut mems: &mut [MemArena] = &mut self.mems;
        let mut flags: &mut [u64] = &mut self.flags;
        let mut fired: &mut [u64] = &mut self.fired;
        executor::commit_essential(
            &self.c,
            &mut st,
            &mut mems,
            &mut flags,
            &mut fired,
            &self.supernode_regs,
            &mut self.dirty_mems,
            &mut self.counters,
            &mut self.reset_snap,
        );
        self.cycle += 1;
        self.counters.cycles += 1;
    }

    // ----- levelized multithreaded full-cycle -----

    fn run_full_mt(&mut self, n: u64, threads: usize, frames: &Frames, first: u64) {
        // Copy state and memories into shared atomics for the run.
        let state: Vec<AtomicU64> = self.state.iter().map(|&w| AtomicU64::new(w)).collect();
        let mems = AtomicMems::snapshot(&self.mems);
        // Chunk each level across threads.
        let chunks: Vec<Vec<(u32, u32)>> = self
            .c
            .level_tasks
            .iter()
            .map(|&(lo, hi)| {
                let len = (hi - lo) as usize;
                let per = len.div_ceil(threads).max(1);
                (0..threads)
                    .map(|t| {
                        let s = (lo as usize + t * per).min(hi as usize);
                        let e = (s + per).min(hi as usize);
                        (s as u32, e as u32)
                    })
                    .collect()
            })
            .collect();
        let barrier = SpinBarrier::new(threads);
        let c = &self.c;
        // The first cycle's stimulus lands before the team starts.
        apply_frame(
            c,
            &mut AtomicStateRef(&state[..]),
            &mut NoActivation,
            frames.get(first),
        );
        // One cycle's level sweep for worker `t`: the single shared
        // body both worker roles run (barrier per level).
        let sweep_cycle = |t: usize, scratch: &mut [u64], counters: &mut Counters| {
            for level in &chunks {
                let (lo, hi) = level[t];
                let mut ctx = Ctx {
                    state: AtomicStateRef(&state[..]),
                    scratch: &mut scratch[..],
                    consts: &c.consts,
                    mems: &mems,
                };
                executor::run_task_range(&mut ctx, c, lo, hi, counters);
                barrier.wait();
            }
        };
        // The calling thread is worker 0: it sweeps its slices, runs
        // the commit phase, and drives the next cycle's stimulus, all
        // inside the scope — no thread is spawned per `run` call for
        // the single-worker case, and spawns amortize over all `n`
        // cycles otherwise.
        let mut t0_counters = Counters::default();
        let per_thread: Vec<Counters> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|t| {
                    let (sweep_cycle, barrier) = (&sweep_cycle, &barrier);
                    scope.spawn(move || {
                        let mut counters = Counters::default();
                        let mut scratch = vec![0u64; c.scratch_words.max(1)];
                        for _ in 0..n {
                            sweep_cycle(t, &mut scratch, &mut counters);
                            barrier.wait(); // commit happens on worker 0
                        }
                        counters
                    })
                })
                .collect();
            {
                let counters = &mut t0_counters;
                let mut scratch = vec![0u64; c.scratch_words.max(1)];
                let mut reset_snap = Vec::new();
                for i in 0..n {
                    sweep_cycle(0, &mut scratch, counters);
                    let mut st = AtomicStateRef(&state[..]);
                    let mut mw: &AtomicMems = &mems;
                    executor::commit_full_cycle(c, &mut st, &mut mw, counters, &mut reset_snap);
                    if i + 1 < n {
                        apply_frame(c, &mut st, &mut NoActivation, frames.get(first + i + 1));
                    }
                    barrier.wait();
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        // Copy results back and merge the per-thread counters (their
        // sum is deterministic for a fixed thread count).
        for (i, w) in self.state.iter_mut().enumerate() {
            *w = state[i].load(Ordering::Relaxed);
        }
        mems.copy_back(&mut self.mems);
        self.counters.merge(&t0_counters);
        for pc in &per_thread {
            self.counters.merge(pc);
        }
        self.counters.cycles += n;
        self.cycle += n;
    }

    // ----- level-parallel essential-signal -----

    fn run_essential_mt(&mut self, n: u64, threads: usize, frames: &Frames, first: u64) {
        if threads == 1 {
            // One worker: the level barriers and atomic images buy
            // nothing, so delegate to the sequential essential sweep —
            // same eval/commit machinery, identical results and
            // semantic work counters (only the examination strategy
            // differs).
            return self.run_essential(n, frames, first);
        }
        // Shared atomic images of the state, active bits, fired set and
        // memories for the run.
        let state: Vec<AtomicU64> = self.state.iter().map(|&w| AtomicU64::new(w)).collect();
        let flags: Vec<AtomicU64> = self.flags.iter().map(|&w| AtomicU64::new(w)).collect();
        let fired: Vec<AtomicU64> = self.fired.iter().map(|&w| AtomicU64::new(w)).collect();
        let mems = AtomicMems::snapshot(&self.mems);
        let barrier = SpinBarrier::new(threads);
        let c = &self.c;
        let supernode_regs = &self.supernode_regs;
        let word_skip = self.opts.check_multiple_bits;
        // The first cycle's stimulus lands before the team starts.
        apply_frame(
            c,
            &mut AtomicStateRef(&state[..]),
            &mut SharedBits(&flags),
            frames.get(first),
        );
        // One cycle's level sweep for worker `t`: the single shared
        // body both worker roles run. `t`'s static slice of each level
        // is claimed with word scans; one barrier per level.
        let sweep_cycle = |t: usize, scratch: &mut [u64], counters: &mut Counters| {
            for level in &c.supernode_levels {
                let per = level.len().div_ceil(threads).max(1);
                let s = (t * per).min(level.len());
                let e = (s + per).min(level.len());
                if s < e {
                    let mut ctx = Ctx {
                        state: AtomicStateRef(&state[..]),
                        scratch: &mut scratch[..],
                        consts: &c.consts,
                        mems: &mems,
                    };
                    executor::sweep_level_slice(
                        c,
                        &mut ctx,
                        &flags,
                        &fired,
                        counters,
                        &level[s..e],
                        word_skip,
                    );
                }
                barrier.wait();
            }
        };
        // As in `run_full_mt`, the calling thread is worker 0 and also
        // runs commit + next-cycle stimulus between the cycle barriers.
        let mut t0_counters = Counters::default();
        let per_thread: Vec<Counters> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|t| {
                    let (sweep_cycle, barrier) = (&sweep_cycle, &barrier);
                    scope.spawn(move || {
                        let mut counters = Counters::default();
                        let mut scratch = vec![0u64; c.scratch_words.max(1)];
                        for _ in 0..n {
                            sweep_cycle(t, &mut scratch, &mut counters);
                            barrier.wait(); // commit happens on worker 0
                        }
                        counters
                    })
                })
                .collect();
            {
                let counters = &mut t0_counters;
                let mut scratch = vec![0u64; c.scratch_words.max(1)];
                let mut dirty = vec![false; mems.arenas.len()];
                let mut reset_snap = Vec::new();
                for i in 0..n {
                    sweep_cycle(0, &mut scratch, counters);
                    let mut st = AtomicStateRef(&state[..]);
                    let mut mw: &AtomicMems = &mems;
                    executor::commit_essential(
                        c,
                        &mut st,
                        &mut mw,
                        &mut SharedBits(&flags),
                        &mut SharedBits(&fired),
                        supernode_regs,
                        &mut dirty,
                        counters,
                        &mut reset_snap,
                    );
                    if i + 1 < n {
                        let next = frames.get(first + i + 1);
                        apply_frame(c, &mut st, &mut SharedBits(&flags), next);
                    }
                    barrier.wait();
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        // Copy the images back (the flags keep commit-time activations
        // for the next cycle) and merge the per-thread counters.
        for (i, w) in self.state.iter_mut().enumerate() {
            *w = state[i].load(Ordering::Relaxed);
        }
        for (i, w) in self.flags.iter_mut().enumerate() {
            *w = flags[i].load(Ordering::Relaxed);
        }
        for (i, w) in self.fired.iter_mut().enumerate() {
            *w = fired[i].load(Ordering::Relaxed);
        }
        mems.copy_back(&mut self.mems);
        self.counters.merge(&t0_counters);
        for pc in &per_thread {
            self.counters.merge(pc);
        }
        self.counters.cycles += n;
        self.cycle += n;
    }
}

/// The interpreter backend's [`Session`]: every engine family behind
/// one object-safe surface. [`Session::run_scenario`] resolves the
/// scenario's names once and hands the engines the whole run, so the
/// multithreaded engines' worker teams stay alive across it.
impl Session for Simulator {
    fn backend(&self) -> &'static str {
        match self.opts.engine {
            EngineKind::FullCycle => "interp/full-cycle",
            EngineKind::FullCycleMt { .. } => "interp/full-cycle-mt",
            EngineKind::Essential => "interp/essential",
            EngineKind::EssentialMt { .. } => "interp/essential-mt",
            EngineKind::Threaded => "interp/threaded",
        }
    }

    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
        Simulator::poke(self, name, v)
    }

    fn peek(&mut self, name: &str) -> Result<Value, GsimError> {
        Simulator::peek(self, name).ok_or_else(|| GsimError::UnknownSignal(name.to_string()))
    }

    fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError> {
        Simulator::load_mem(self, name, image)
    }

    fn step(&mut self, n: u64) -> Result<(), GsimError> {
        self.run(n);
        Ok(())
    }

    fn run_scenario(&mut self, scenario: &Scenario) -> Result<(), GsimError> {
        for (mem, image) in &scenario.loads {
            Simulator::load_mem(self, mem, image)?;
        }
        let (frames, err) = self.resolve(scenario);
        self.run_frames(scenario.cycles(), &frames);
        err.map_or(Ok(()), Err)
    }

    fn counters(&mut self) -> Result<Counters, GsimError> {
        Ok(*Simulator::counters(self))
    }

    fn snapshot(&mut self) -> Result<SnapshotId, GsimError> {
        Ok(self.take_snapshot())
    }

    fn restore(&mut self, id: SnapshotId) -> Result<(), GsimError> {
        self.restore_snapshot(id)
    }

    fn clone_at_snapshot(&mut self) -> Result<Box<dyn Session + Send>, GsimError> {
        Ok(Box::new(self.fork()))
    }

    fn inputs(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        Ok(self
            .c
            .io_inputs
            .iter()
            .map(|(name, width)| SignalInfo {
                name: name.clone(),
                width: *width,
            })
            .collect())
    }

    fn signals(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        Ok(self
            .c
            .io_signals
            .iter()
            .map(|(name, width)| SignalInfo {
                name: name.clone(),
                width: *width,
            })
            .collect())
    }

    fn memories(&mut self) -> Result<Vec<MemoryInfo>, GsimError> {
        Ok(self
            .mems
            .iter()
            .map(|m| MemoryInfo {
                name: m.name.clone(),
                depth: m.depth,
                width: m.width,
            })
            .collect())
    }

    fn trace_start(
        &mut self,
        signals: Option<&[String]>,
        sink: Box<dyn WaveSink>,
    ) -> Result<(), GsimError> {
        Simulator::trace_start(self, signals, sink)
    }

    fn trace_stop(&mut self) -> Result<(), GsimError> {
        Simulator::trace_stop(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output out : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      c <= tail(add(c, UInt<8>(1)), 1)
    out <= c
"#;

    fn engines() -> Vec<(&'static str, SimOptions)> {
        vec![
            ("full", SimOptions::full_cycle()),
            ("mt2", SimOptions::full_cycle_mt(2)),
            ("essent", SimOptions::essent_like()),
            ("gsim", SimOptions::default()),
            ("gsim-mt1", SimOptions::essential_mt(1)),
            ("gsim-mt2", SimOptions::essential_mt(2)),
            ("gsim-mt4", SimOptions::essential_mt(4)),
            ("gsim-jit", SimOptions::threaded()),
        ]
    }

    #[test]
    fn counter_counts_on_all_engines() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            sim.poke_u64("en", 1).unwrap();
            sim.run(10);
            assert_eq!(sim.peek_u64("out"), Some(9), "engine {name}");
            sim.poke_u64("en", 0).unwrap();
            sim.run(5);
            assert_eq!(sim.peek_u64("out"), Some(10), "engine {name} hold");
            sim.poke_u64("reset", 1).unwrap();
            sim.step();
            sim.poke_u64("reset", 0).unwrap();
            sim.step();
            assert_eq!(sim.peek_u64("out"), Some(0), "engine {name} reset");
        }
    }

    #[test]
    fn essential_skips_idle_supernodes() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        for opts in [SimOptions::default(), SimOptions::essential_mt(2)] {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            // Idle (en=0, after settling): the counter logic must not
            // be evaluated every cycle.
            sim.run(3); // settle
            sim.reset_counters();
            sim.run(100);
            let evals = sim.counters().node_evals;
            assert!(
                evals < 100,
                "idle circuit should evaluate almost nothing, saw {evals}"
            );
            // Enable: activity returns.
            sim.poke_u64("en", 1).unwrap();
            sim.reset_counters();
            sim.run(10);
            assert!(sim.counters().node_evals > 0);
            assert!(sim.peek_u64("out").is_some());
        }
    }

    #[test]
    fn counters_distinguish_examination_modes() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let mut word_mode = Simulator::compile(&g, &SimOptions::default()).unwrap();
        let mut flag_mode = Simulator::compile(
            &g,
            &SimOptions {
                check_multiple_bits: false,
                ..SimOptions::default()
            },
        )
        .unwrap();
        word_mode.run(50);
        flag_mode.run(50);
        assert!(
            word_mode.counters().aexam_checks < flag_mode.counters().aexam_checks,
            "word-skip must examine fewer active bits ({} vs {})",
            word_mode.counters().aexam_checks,
            flag_mode.counters().aexam_checks
        );
    }

    #[test]
    fn essential_mt_matches_sequential_work_counters() {
        // The parallel sweep evaluates exactly the supernodes the
        // sequential sweep does (only the examination strategy
        // differs), and its merged stats are run-to-run stable.
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let mut seq = Simulator::compile(&g, &SimOptions::default()).unwrap();
        let mut par = Simulator::compile(&g, &SimOptions::essential_mt(4)).unwrap();
        let mut par2 = Simulator::compile(&g, &SimOptions::essential_mt(4)).unwrap();
        for sim in [&mut seq, &mut par, &mut par2] {
            sim.poke_u64("en", 1).unwrap();
            sim.run(40);
        }
        let (s, p) = (seq.counters(), par.counters());
        assert_eq!(s.supernode_evals, p.supernode_evals);
        assert_eq!(s.node_evals, p.node_evals);
        assert_eq!(s.value_changes, p.value_changes);
        assert_eq!(s.activations, p.activations);
        assert_eq!(p, par2.counters(), "parallel stats wobbled between runs");
    }

    #[test]
    fn memory_behaviour_matches_reference() {
        let src = r#"
circuit M :
  module M :
    input clock : Clock
    input waddr : UInt<3>
    input wdata : UInt<16>
    input wen : UInt<1>
    input raddr : UInt<3>
    output q : UInt<16>
    mem ram :
      data-type => UInt<16>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    ram.r.addr <= raddr
    ram.r.en <= UInt<1>(1)
    ram.w.addr <= waddr
    ram.w.data <= wdata
    ram.w.en <= wen
    q <= ram.r.data
"#;
        let g = gsim_firrtl::compile(src).unwrap();
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            let mut reference = gsim_graph::interp::RefInterp::new(&g).unwrap();
            let stim = [
                (1u64, 0xaaaau64, 1u64, 0u64),
                (1, 0xbbbb, 0, 1),
                (2, 0x1234, 1, 1),
                (2, 0x9999, 0, 2),
                (1, 0x5555, 1, 1),
                (1, 0, 0, 1),
            ];
            for (wa, wd, we, ra) in stim {
                sim.poke_u64("waddr", wa).unwrap();
                sim.poke_u64("wdata", wd).unwrap();
                sim.poke_u64("wen", we).unwrap();
                sim.poke_u64("raddr", ra).unwrap();
                reference.poke_u64("waddr", wa).unwrap();
                reference.poke_u64("wdata", wd).unwrap();
                reference.poke_u64("wen", we).unwrap();
                reference.poke_u64("raddr", ra).unwrap();
                sim.step();
                reference.step();
                assert_eq!(
                    sim.peek_u64("q"),
                    reference.peek_u64("q"),
                    "engine {name} diverged"
                );
            }
            // Load-mem API.
            sim.load_mem("ram", &[7; 8]).unwrap();
            assert_eq!(sim.read_mem("ram", 3).unwrap().to_u64(), Some(7));
            assert!(sim.load_mem("nope", &[1]).is_err());
        }
    }

    #[test]
    fn wide_signals_work_on_all_engines() {
        let src = r#"
circuit W :
  module W :
    input a : UInt<100>
    input b : UInt<100>
    output sum : UInt<101>
    output prod_lo : UInt<64>
    output catted : UInt<200>
    sum <= add(a, b)
    prod_lo <= bits(mul(a, b), 63, 0)
    catted <= cat(a, b)
"#;
        let g = gsim_firrtl::compile(src).unwrap();
        let a = Value::from_str_radix("fffffffffffffffffffffffff", 16, 100).unwrap();
        let b = Value::from_u64(0x1234_5678_9abc_def0, 100);
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            sim.poke("a", a.clone()).unwrap();
            sim.poke("b", b.clone()).unwrap();
            sim.step();
            let expect_sum = gsim_value::ops::add(&a, &b, false);
            assert_eq!(sim.peek("sum"), Some(expect_sum), "engine {name} sum");
            let expect_cat = gsim_value::ops::cat(&a, &b);
            assert_eq!(sim.peek("catted"), Some(expect_cat), "engine {name} cat");
            let prod = gsim_value::ops::mul(&a, &b, false);
            let expect_lo = gsim_value::ops::bits(&prod, 63, 0);
            assert_eq!(sim.peek("prod_lo"), Some(expect_lo), "engine {name} mul");
        }
    }

    #[test]
    fn state_bytes_and_instr_counts_reported() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let sim = Simulator::compile(&g, &SimOptions::default()).unwrap();
        assert!(sim.state_bytes() > 0);
        assert!(sim.num_instrs() > 0);
        assert!(sim.num_supernodes() > 0);
        // The level schedule only exists for the parallel essential
        // engine.
        assert_eq!(sim.num_supernode_levels(), 0);
        let mt = Simulator::compile(&g, &SimOptions::essential_mt(2)).unwrap();
        assert!(mt.num_supernode_levels() > 0);
    }

    #[test]
    fn zero_threads_is_a_compile_error() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        for opts in [SimOptions::essential_mt(0), SimOptions::full_cycle_mt(0)] {
            assert_eq!(
                Simulator::compile(&g, &opts).unwrap_err(),
                CompileError::NoThreads
            );
        }
    }

    #[test]
    fn empty_scenario_is_a_no_op_on_every_engine() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            sim.poke_u64("en", 1).unwrap();
            sim.run(5);
            let before = sim.peek_u64("out");
            sim.run_scenario(&Scenario::new()).unwrap();
            assert_eq!(sim.cycle(), 5, "engine {name}");
            assert_eq!(sim.peek_u64("out"), before, "engine {name}");
        }
    }

    const MEMCIRC: &str = r#"
circuit M :
  module M :
    input clock : Clock
    input waddr : UInt<3>
    input wdata : UInt<16>
    input wen : UInt<1>
    input raddr : UInt<3>
    output q : UInt<16>
    mem ram :
      data-type => UInt<16>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    ram.r.addr <= raddr
    ram.r.en <= UInt<1>(1)
    ram.w.addr <= waddr
    ram.w.data <= wdata
    ram.w.en <= wen
    q <= ram.r.data
"#;

    #[test]
    fn snapshots_share_mem_storage_until_write() {
        let g = gsim_firrtl::compile(MEMCIRC).unwrap();
        let mut sim = Simulator::compile(&g, &SimOptions::default()).unwrap();
        sim.load_mem("ram", &[9; 8]).unwrap();
        sim.poke_u64("wen", 0).unwrap();
        sim.run(3);
        let id = sim.take_snapshot();
        // No memory write since the snapshot: storage is still shared.
        let (owned, deep) = sim.snapshot_mem_bytes();
        assert_eq!(owned, 0, "read-only arena must stay shared");
        assert!(deep > 0);
        // A committed memory write unshares the live arena.
        sim.poke_u64("wen", 1).unwrap();
        sim.poke_u64("waddr", 2).unwrap();
        sim.poke_u64("wdata", 0x1234).unwrap();
        sim.step();
        let (owned, deep2) = sim.snapshot_mem_bytes();
        assert_eq!(owned, deep2);
        assert_eq!(deep, deep2);
        // The snapshot preserved the pre-write image.
        sim.restore_snapshot(id).unwrap();
        assert_eq!(sim.read_mem("ram", 2).unwrap().to_u64(), Some(9));
    }

    #[test]
    fn fork_diverges_independently() {
        let g = gsim_firrtl::compile(MEMCIRC).unwrap();
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            sim.load_mem("ram", &[5; 8]).unwrap();
            sim.poke_u64("raddr", 1).unwrap();
            sim.poke_u64("wen", 0).unwrap();
            sim.run(2);
            let mut child = sim.fork();
            assert_eq!(child.cycle(), sim.cycle(), "engine {name}");
            assert_eq!(child.counters(), sim.counters(), "engine {name}");
            // The child writes; the parent must not observe it. The
            // write commits at the end of the first step; the
            // combinational read reflects it on the next sweep.
            child.poke_u64("wen", 1).unwrap();
            child.poke_u64("waddr", 1).unwrap();
            child.poke_u64("wdata", 0xbeef).unwrap();
            child.step();
            child.poke_u64("wen", 0).unwrap();
            child.step();
            sim.run(2);
            assert_eq!(child.read_mem("ram", 1).unwrap().to_u64(), Some(0xbeef));
            assert_eq!(child.peek_u64("q"), Some(0xbeef), "engine {name}");
            assert_eq!(sim.peek_u64("q"), Some(5), "engine {name} parent");
            assert_eq!(sim.read_mem("ram", 1).unwrap().to_u64(), Some(5));
        }
    }

    #[test]
    fn poke_rejects_non_inputs() {
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let mut sim = Simulator::compile(&g, &SimOptions::default()).unwrap();
        assert!(sim.poke_u64("out", 1).is_err());
        assert!(sim.poke_u64("missing", 1).is_err());
    }

    #[test]
    fn traced_waves_are_identical_across_engines() {
        use gsim_wave::{first_difference, WaveCell};
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let mut waves = Vec::new();
        for (name, opts) in engines() {
            let mut sim = Simulator::compile(&g, &opts).unwrap();
            let cell = WaveCell::new();
            sim.trace_start(None, Box::new(cell.sink())).unwrap();
            sim.poke_u64("en", 1).unwrap();
            sim.run(6);
            sim.poke_u64("en", 0).unwrap();
            sim.run(3);
            sim.poke_u64("reset", 1).unwrap();
            sim.run(2);
            sim.trace_stop().unwrap();
            waves.push((name, cell.take()));
        }
        let (base_name, base) = &waves[0];
        assert!(
            base.changes
                .iter()
                .any(|&(_, s, _)| base.signals[s].name == "out"),
            "trace must record the counter output"
        );
        for (name, wave) in &waves[1..] {
            assert_eq!(
                first_difference(base, wave),
                None,
                "engine {name} wave diverged from {base_name}"
            );
        }
    }

    #[test]
    fn trace_subset_and_errors() {
        use gsim_wave::WaveCell;
        let g = gsim_firrtl::compile(COUNTER).unwrap();
        let mut sim = Simulator::compile(&g, &SimOptions::default()).unwrap();
        // Unknown subset name is rejected up front, leaving no trace.
        let cell = WaveCell::new();
        let err = sim
            .trace_start(Some(&["nope".to_string()]), Box::new(cell.sink()))
            .unwrap_err();
        assert!(matches!(err, GsimError::UnknownSignal(n) if n == "nope"));
        assert!(matches!(sim.trace_stop(), Err(GsimError::Config(_))));
        // A subset traces only the named signals; double-start fails.
        let cell = WaveCell::new();
        sim.trace_start(Some(&["out".to_string()]), Box::new(cell.sink()))
            .unwrap();
        let second = WaveCell::new();
        assert!(matches!(
            sim.trace_start(None, Box::new(second.sink())),
            Err(GsimError::Config(_))
        ));
        sim.poke_u64("en", 1).unwrap();
        sim.run(4);
        sim.trace_stop().unwrap();
        let wave = cell.take();
        assert_eq!(wave.signals.len(), 1);
        assert_eq!(wave.signals[0].name, "out");
        // Baseline at cycle 0 plus per-cycle increments of `out`:
        // values 0,1,2,3 at times 0,2,3,4 (the first enabled cycle
        // leaves out at 0; it becomes observable one cycle later).
        assert!(wave.changes.len() >= 4, "{:?}", wave.changes);
    }
}
