//! Session supervision: crash recovery by checkpoint + journal replay.
//!
//! A [`SupervisedSession`] wraps any `Box<dyn Session>` and makes it
//! survive the death of the backend behind it. It keeps two pieces of
//! recovery state:
//!
//! * a **checkpoint** — the backend's full state exported through
//!   [`Session::export_state`], refreshed automatically every
//!   [`SuperviseOptions::checkpoint_every`] cycles;
//! * a **journal** — every state-mutating command (pokes, memory
//!   loads, scenario frames, steps) accepted since that checkpoint.
//!
//! When an operation fails with a fatal error ([`GsimError::is_fatal`]
//! — the child died, the socket reset, a deadline expired), the
//! supervisor respawns a fresh backend through its factory closure,
//! imports the checkpoint, replays the journal, and retries the
//! failed operation. Because every backend is deterministic and the
//! checkpoint captures the complete state (including counters), the
//! recovered session is **bit-identical** to one that never crashed —
//! pinned by the chaos suite, which kills the AoT child mid-run and
//! diffs the outcome against an uninterrupted reference run.
//!
//! Backends that cannot export state (the default
//! [`Session::export_state`] returns `Ok(None)`) are still supervised:
//! the journal then runs from cycle 0 and recovery replays the whole
//! history. One restriction applies in that mode: after
//! [`Session::restore`] to a backend-held snapshot, the journal no
//! longer describes the state and recovery is refused.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::session::{GsimError, MemoryInfo, Session, SignalInfo, SnapshotId};
use crate::{Counters, Scenario};
use gsim_value::Value;

/// Knobs for [`SupervisedSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseOptions {
    /// Auto-checkpoint period in cycles (`0` disables periodic
    /// checkpoints; the journal then grows until an explicit
    /// snapshot). Smaller periods bound replay work after a crash at
    /// the cost of more frequent state exports.
    pub checkpoint_every: u64,
    /// How many successful recoveries to perform before giving up and
    /// surfacing [`GsimError::SessionLost`] to the caller.
    pub max_recoveries: u32,
}

impl Default for SuperviseOptions {
    fn default() -> SuperviseOptions {
        SuperviseOptions {
            checkpoint_every: 4096,
            max_recoveries: 3,
        }
    }
}

/// Timing breakdown of one completed recovery, from
/// [`SupervisedSession::last_recovery`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Wire class of the error that triggered recovery
    /// (`session-lost`, `timeout`, `io`, `backend`).
    pub trigger: String,
    /// How long the failing operation ran before the fault surfaced
    /// (EOF detection is immediate; a stall costs the deadline).
    pub detect_s: f64,
    /// Time to spawn the replacement backend via the factory.
    pub respawn_s: f64,
    /// Time to import the checkpoint into the replacement.
    pub restore_s: f64,
    /// Time to replay the journal on top of the checkpoint.
    pub replay_s: f64,
    /// Cycles re-executed during journal replay.
    pub replayed_cycles: u64,
    /// Journal entries replayed.
    pub journal_len: usize,
}

impl RecoveryStats {
    /// Total recovery time (respawn + restore + replay), excluding
    /// detection.
    pub fn total_s(&self) -> f64 {
        self.respawn_s + self.restore_s + self.replay_s
    }
}

/// One state-mutating command, as recorded in the journal.
#[derive(Debug, Clone)]
enum Cmd {
    Poke(String, Value),
    Load(String, Vec<u64>),
    /// One scenario cycle: the frame's pokes, then a single step.
    Frame(Vec<(String, u64)>),
    Step(u64),
}

/// Factory that (re)creates the underlying backend session.
pub type SessionFactory = Box<dyn FnMut() -> Result<Box<dyn Session>, GsimError>>;

/// A fault-tolerant wrapper around any [`Session`] (see the module
/// docs for the recovery model).
pub struct SupervisedSession {
    inner: Box<dyn Session>,
    respawn: SessionFactory,
    opts: SuperviseOptions,
    /// Exported state underlying the journal, if the backend supports
    /// export; `None` means the journal runs from cycle 0.
    checkpoint: Option<Vec<u8>>,
    exportable: bool,
    journal: Vec<Cmd>,
    since_checkpoint: u64,
    /// Exported states backing our snapshot ids (exportable mode
    /// only — they survive backend crashes, unlike backend-held ids).
    snaps: HashMap<u64, Vec<u8>>,
    next_snap: u64,
    /// Set when the journal stopped describing the live state (an
    /// in-backend restore without export support): recovery refused.
    unreplayable: Option<String>,
    recoveries: u32,
    last_recovery: Option<RecoveryStats>,
}

impl SupervisedSession {
    /// Builds the first backend via `respawn` and wraps it. If the
    /// backend supports state export, its initial state becomes the
    /// first checkpoint.
    ///
    /// # Errors
    ///
    /// Whatever the factory's first invocation returns.
    pub fn new(mut respawn: SessionFactory, opts: SuperviseOptions) -> Result<Self, GsimError> {
        let mut inner = respawn()?;
        let checkpoint = inner.export_state()?;
        let exportable = checkpoint.is_some();
        Ok(SupervisedSession {
            inner,
            respawn,
            opts,
            checkpoint,
            exportable,
            journal: Vec::new(),
            since_checkpoint: 0,
            snaps: HashMap::new(),
            next_snap: 0,
            unreplayable: None,
            recoveries: 0,
            last_recovery: None,
        })
    }

    /// Successful recoveries performed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Timing breakdown of the most recent recovery, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryStats> {
        self.last_recovery.as_ref()
    }

    /// Journal entries accumulated since the last checkpoint.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// `true` if the backend supports state export (bounded-replay
    /// recovery); `false` means recovery replays from cycle 0.
    pub fn exportable(&self) -> bool {
        self.exportable
    }

    /// Runs `f` against the backend; on a fatal failure, recovers
    /// (respawn + checkpoint import + journal replay) and retries `f`
    /// on the replacement, up to [`SuperviseOptions::max_recoveries`]
    /// times across the session's lifetime.
    fn attempt<T>(
        &mut self,
        f: &mut dyn FnMut(&mut dyn Session) -> Result<T, GsimError>,
    ) -> Result<T, GsimError> {
        loop {
            let started = Instant::now();
            match f(self.inner.as_mut()) {
                Err(e) if e.is_fatal() => self.recover(&e, started.elapsed())?,
                r => return r,
            }
        }
    }

    /// Respawn + restore + replay. On success the backend is back at
    /// exactly the pre-fault journaled state.
    fn recover(&mut self, trigger: &GsimError, detect: Duration) -> Result<(), GsimError> {
        if let Some(why) = &self.unreplayable {
            return Err(GsimError::SessionLost(format!(
                "unrecoverable ({why}); original error: {trigger}"
            )));
        }
        if self.recoveries >= self.opts.max_recoveries {
            return Err(GsimError::SessionLost(format!(
                "gave up after {} recoveries; latest error: {trigger}",
                self.recoveries
            )));
        }
        let spawn_started = Instant::now();
        let fresh = (self.respawn)()?;
        // Replace first so the dead backend is dropped (and its child
        // process reaped) before we start driving the replacement.
        drop(std::mem::replace(&mut self.inner, fresh));
        let respawn_s = spawn_started.elapsed().as_secs_f64();

        let restore_started = Instant::now();
        if let Some(state) = &self.checkpoint {
            self.inner.import_state(state)?;
        }
        let restore_s = restore_started.elapsed().as_secs_f64();

        let replay_started = Instant::now();
        let journal = std::mem::take(&mut self.journal);
        let replayed = apply_journal(self.inner.as_mut(), &journal);
        let journal_len = journal.len();
        self.journal = journal;
        let replayed_cycles = replayed?;
        self.recoveries += 1;
        self.last_recovery = Some(RecoveryStats {
            trigger: trigger.wire_class().to_string(),
            detect_s: detect.as_secs_f64(),
            respawn_s,
            restore_s,
            replay_s: replay_started.elapsed().as_secs_f64(),
            replayed_cycles,
            journal_len,
        });
        Ok(())
    }

    /// The largest step/run chunk that keeps the checkpoint cadence.
    fn chunk(&self, left: u64) -> u64 {
        if !self.exportable || self.opts.checkpoint_every == 0 {
            return left;
        }
        left.min(
            self.opts
                .checkpoint_every
                .saturating_sub(self.since_checkpoint)
                .max(1),
        )
    }

    /// Refreshes the checkpoint (and truncates the journal) once the
    /// cadence is due. A failed export is not fatal to the run — the
    /// journal simply keeps growing and we try again next chunk.
    fn maybe_checkpoint(&mut self) {
        if !self.exportable
            || self.opts.checkpoint_every == 0
            || self.since_checkpoint < self.opts.checkpoint_every
        {
            return;
        }
        if let Ok(Some(state)) = self.attempt(&mut |s| s.export_state()) {
            self.checkpoint = Some(state);
            self.journal.clear();
            self.since_checkpoint = 0;
        }
    }
}

/// Replays a journal onto `inner`: a run of consecutive `Step`s as
/// one `step` call and a run of consecutive `Frame`s as one
/// [`Session::run_scenario`] (bounded round trips on remote
/// backends). Returns the number of cycles re-executed.
fn apply_journal(inner: &mut dyn Session, journal: &[Cmd]) -> Result<u64, GsimError> {
    let mut replayed = 0u64;
    let mut i = 0;
    while i < journal.len() {
        match &journal[i] {
            Cmd::Poke(name, v) => {
                inner.poke(name, v.clone())?;
                i += 1;
            }
            Cmd::Load(name, image) => {
                inner.load_mem(name, image)?;
                i += 1;
            }
            Cmd::Step(_) => {
                let mut n = 0;
                while let Some(Cmd::Step(k)) = journal.get(i) {
                    n += k;
                    i += 1;
                }
                inner.step(n)?;
                replayed += n;
            }
            Cmd::Frame(_) => {
                let mut frames = Vec::new();
                while let Some(Cmd::Frame(pokes)) = journal.get(i) {
                    frames.push(pokes.clone());
                    i += 1;
                }
                replayed += frames.len() as u64;
                inner.run_scenario(&Scenario {
                    loads: Vec::new(),
                    frames,
                })?;
            }
        }
    }
    Ok(replayed)
}

impl Session for SupervisedSession {
    fn backend(&self) -> &'static str {
        "supervised"
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
        self.attempt(&mut |s| s.poke(name, v.clone()))?;
        self.journal.push(Cmd::Poke(name.to_string(), v));
        Ok(())
    }

    fn peek(&mut self, name: &str) -> Result<Value, GsimError> {
        self.attempt(&mut |s| s.peek(name))
    }

    fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError> {
        self.attempt(&mut |s| s.load_mem(name, image))?;
        self.journal
            .push(Cmd::Load(name.to_string(), image.to_vec()));
        Ok(())
    }

    fn step(&mut self, n: u64) -> Result<(), GsimError> {
        let mut left = n;
        while left > 0 {
            let chunk = self.chunk(left);
            self.attempt(&mut |s| s.step(chunk))?;
            self.journal.push(Cmd::Step(chunk));
            self.since_checkpoint += chunk;
            left -= chunk;
            self.maybe_checkpoint();
        }
        Ok(())
    }

    fn run_scenario(&mut self, scenario: &Scenario) -> Result<(), GsimError> {
        for (mem, image) in &scenario.loads {
            self.load_mem(mem, image)?;
        }
        let mut first_err: Option<GsimError> = None;
        let mut rest = &scenario.frames[..];
        while !rest.is_empty() {
            let (now, later) = rest.split_at(self.chunk(rest.len() as u64) as usize);
            rest = later;
            // One owned copy of the chunk serves the (possibly
            // retried) backend call and then becomes the journal.
            let chunk = Scenario {
                loads: Vec::new(),
                frames: now.to_vec(),
            };
            match self.attempt(&mut |s| s.run_scenario(&chunk)) {
                Ok(()) => {}
                Err(e) if e.is_fatal() => return Err(e),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            };
            // The backend ran every frame's cycle (the trait contract
            // even under non-fatal poke errors), so journal them.
            self.since_checkpoint += now.len() as u64;
            self.journal
                .extend(chunk.frames.into_iter().map(Cmd::Frame));
            self.maybe_checkpoint();
        }
        first_err.map_or(Ok(()), Err)
    }

    fn trace_start(
        &mut self,
        signals: Option<&[String]>,
        sink: Box<dyn gsim_wave::WaveSink>,
    ) -> Result<(), GsimError> {
        // Forwarded directly rather than via `attempt`: the sink is a
        // linear resource, so a crash recovery cannot re-arm it. A
        // trace that was active when the inner session died simply
        // ends at the crash cycle; the replacement session comes back
        // untraced.
        self.inner.trace_start(signals, sink)
    }

    fn trace_stop(&mut self) -> Result<(), GsimError> {
        self.inner.trace_stop()
    }

    fn counters(&mut self) -> Result<Counters, GsimError> {
        self.attempt(&mut |s| s.counters())
    }

    fn snapshot(&mut self) -> Result<SnapshotId, GsimError> {
        if !self.exportable {
            // Delegate; the id lives in the backend, so a later
            // restore to it forfeits crash recovery (see `restore`).
            return self.attempt(&mut |s| s.snapshot());
        }
        let state = self
            .attempt(&mut |s| s.export_state())?
            .ok_or_else(|| GsimError::Backend("state export vanished mid-session".into()))?;
        let id = self.next_snap;
        self.next_snap += 1;
        self.snaps.insert(id, state);
        Ok(SnapshotId::from_raw(id))
    }

    fn restore(&mut self, id: SnapshotId) -> Result<(), GsimError> {
        if !self.exportable {
            self.attempt(&mut |s| s.restore(id))?;
            self.unreplayable =
                Some("restored a backend-held snapshot on a backend without state export".into());
            return Ok(());
        }
        let state = self
            .snaps
            .get(&id.raw())
            .cloned()
            .ok_or(GsimError::UnknownSnapshot(id.raw()))?;
        self.attempt(&mut |s| s.import_state(&state))?;
        // The snapshot is now the state of record: journal restarts
        // here and recovery reimports it.
        self.checkpoint = Some(state);
        self.journal.clear();
        self.since_checkpoint = 0;
        Ok(())
    }

    fn inputs(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        self.attempt(&mut |s| s.inputs())
    }

    fn signals(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        self.attempt(&mut |s| s.signals())
    }

    fn memories(&mut self) -> Result<Vec<MemoryInfo>, GsimError> {
        self.attempt(&mut |s| s.memories())
    }

    fn clone_at_snapshot(&mut self) -> Result<Box<dyn Session + Send>, GsimError> {
        // The fork is a plain (unsupervised) child: callers that fan
        // out forks — the explorer — carry their own recovery factory,
        // so wrapping each child in a supervisor would duplicate the
        // journal for no benefit.
        self.attempt(&mut |s| s.clone_at_snapshot())
    }

    fn export_state(&mut self) -> Result<Option<Vec<u8>>, GsimError> {
        self.attempt(&mut |s| s.export_state())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), GsimError> {
        self.attempt(&mut |s| s.import_state(state))?;
        if self.exportable {
            self.checkpoint = Some(state.to_vec());
        }
        self.journal.clear();
        self.since_checkpoint = 0;
        Ok(())
    }
}

impl std::fmt::Debug for SupervisedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSession")
            .field("backend", &self.inner.backend())
            .field("cycle", &self.inner.cycle())
            .field("exportable", &self.exportable)
            .field("journal_len", &self.journal.len())
            .field("recoveries", &self.recoveries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Shared control block: which absolute cycles kill the "backend",
    /// how many times the factory ran, and the `step` calls received.
    #[derive(Default)]
    struct Ctrl {
        kills: Vec<u64>,
        spawns: u32,
        exportable: bool,
        steps: Vec<u64>,
    }

    /// A deterministic in-process stand-in for a crashy backend: one
    /// input `in`, one register `acc` folding the input every cycle.
    struct MockSim {
        ctrl: Rc<RefCell<Ctrl>>,
        cycle: u64,
        acc: u64,
        pending: u64,
        dead: bool,
    }

    impl MockSim {
        fn lost(&mut self) -> GsimError {
            self.dead = true;
            GsimError::SessionLost("mock child exited".into())
        }

        fn guard(&mut self) -> Result<(), GsimError> {
            if self.dead {
                return Err(GsimError::SessionLost("mock child exited".into()));
            }
            Ok(())
        }

        fn one_cycle(&mut self) -> Result<(), GsimError> {
            let due = {
                let mut ctrl = self.ctrl.borrow_mut();
                if ctrl.kills.first() == Some(&self.cycle) {
                    ctrl.kills.remove(0);
                    true
                } else {
                    false
                }
            };
            if due {
                return Err(self.lost());
            }
            self.acc = self.acc.wrapping_mul(3).wrapping_add(self.pending);
            self.cycle += 1;
            Ok(())
        }
    }

    impl Session for MockSim {
        fn backend(&self) -> &'static str {
            "mock"
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
            self.guard()?;
            if name != "in" {
                return Err(GsimError::UnknownSignal(name.to_string()));
            }
            self.pending = v.to_u64().unwrap_or(0);
            Ok(())
        }
        fn peek(&mut self, name: &str) -> Result<Value, GsimError> {
            self.guard()?;
            match name {
                "acc" => Ok(Value::from_u64(self.acc, 64)),
                "in" => Ok(Value::from_u64(self.pending, 64)),
                _ => Err(GsimError::UnknownSignal(name.to_string())),
            }
        }
        fn load_mem(&mut self, name: &str, _image: &[u64]) -> Result<(), GsimError> {
            self.guard()?;
            Err(GsimError::UnknownMemory(name.to_string()))
        }
        fn step(&mut self, n: u64) -> Result<(), GsimError> {
            self.guard()?;
            self.ctrl.borrow_mut().steps.push(n);
            for _ in 0..n {
                self.one_cycle()?;
            }
            Ok(())
        }
        fn counters(&mut self) -> Result<Counters, GsimError> {
            self.guard()?;
            Ok(Counters {
                cycles: self.cycle,
                node_evals: self.cycle * 2,
                ..Counters::default()
            })
        }
        fn snapshot(&mut self) -> Result<SnapshotId, GsimError> {
            self.guard()?;
            // Backend-held snapshots die with the process; the mock
            // encodes the state in the id to keep the test honest.
            Ok(SnapshotId::from_raw(self.cycle))
        }
        fn restore(&mut self, id: SnapshotId) -> Result<(), GsimError> {
            self.guard()?;
            self.cycle = id.raw();
            self.acc = 0;
            Ok(())
        }
        fn inputs(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
            Ok(vec![SignalInfo {
                name: "in".into(),
                width: 64,
            }])
        }
        fn signals(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
            Ok(vec![SignalInfo {
                name: "acc".into(),
                width: 64,
            }])
        }
        fn memories(&mut self) -> Result<Vec<MemoryInfo>, GsimError> {
            Ok(Vec::new())
        }
        fn export_state(&mut self) -> Result<Option<Vec<u8>>, GsimError> {
            self.guard()?;
            if !self.ctrl.borrow().exportable {
                return Ok(None);
            }
            Ok(Some(
                format!("{}.{}.{}", self.cycle, self.acc, self.pending).into_bytes(),
            ))
        }
        fn import_state(&mut self, state: &[u8]) -> Result<(), GsimError> {
            self.guard()?;
            let text = std::str::from_utf8(state)
                .map_err(|_| GsimError::Protocol("bad state blob".into()))?;
            let mut it = text.split('.');
            let mut next = || {
                it.next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| GsimError::Protocol("bad state blob".into()))
            };
            self.cycle = next()?;
            self.acc = next()?;
            self.pending = next()?;
            Ok(())
        }
    }

    fn factory(ctrl: &Rc<RefCell<Ctrl>>) -> SessionFactory {
        let ctrl = Rc::clone(ctrl);
        Box::new(move || {
            ctrl.borrow_mut().spawns += 1;
            Ok(Box::new(MockSim {
                ctrl: Rc::clone(&ctrl),
                cycle: 0,
                acc: 0,
                pending: 0,
                dead: false,
            }) as Box<dyn Session>)
        })
    }

    fn ctrl(kills: &[u64], exportable: bool) -> Rc<RefCell<Ctrl>> {
        Rc::new(RefCell::new(Ctrl {
            kills: kills.to_vec(),
            exportable,
            ..Ctrl::default()
        }))
    }

    /// Frames driving `in` with `f(cycle)` for cycles `from..to`.
    fn ramp(from: u64, to: u64, f: fn(u64) -> u64) -> Scenario {
        Scenario {
            loads: Vec::new(),
            frames: (from..to)
                .map(|at| vec![("in".to_string(), f(at))])
                .collect(),
        }
    }

    /// Reference run: the same stimulus on a backend that never dies.
    fn clean_run(cycles: u64) -> (u64, Counters) {
        let c = ctrl(&[], true);
        let mut sim = factory(&c)().unwrap();
        sim.run_scenario(&ramp(0, cycles, |at| at * 7 + 1)).unwrap();
        let acc = sim.peek_u64("acc").unwrap().unwrap();
        (acc, sim.counters().unwrap())
    }

    #[test]
    fn recovery_is_bit_identical_with_checkpoints() {
        let c = ctrl(&[13, 29], true);
        let mut sup = SupervisedSession::new(
            factory(&c),
            SuperviseOptions {
                checkpoint_every: 8,
                max_recoveries: 4,
            },
        )
        .unwrap();
        sup.run_scenario(&ramp(0, 48, |at| at * 7 + 1)).unwrap();
        let (acc, counters) = clean_run(48);
        assert_eq!(sup.peek_u64("acc").unwrap(), Some(acc));
        assert_eq!(sup.counters().unwrap(), counters);
        assert_eq!(sup.recoveries(), 2);
        assert_eq!(c.borrow().spawns, 3);
        let stats = sup.last_recovery().unwrap();
        // Bounded replay: never more than one checkpoint period.
        assert!(
            stats.replayed_cycles <= 8,
            "replayed {} cycles",
            stats.replayed_cycles
        );
    }

    #[test]
    fn recovery_replays_from_zero_without_export() {
        let c = ctrl(&[21], false);
        let mut sup = SupervisedSession::new(factory(&c), SuperviseOptions::default()).unwrap();
        assert!(!sup.exportable());
        // Two calls so the first chunk is in the journal when the
        // second one crashes: recovery must replay it from cycle 0.
        sup.run_scenario(&ramp(0, 16, |at| at * 7 + 1)).unwrap();
        sup.run_scenario(&ramp(16, 32, |at| at * 7 + 1)).unwrap();
        let (acc, counters) = clean_run(32);
        assert_eq!(sup.peek_u64("acc").unwrap(), Some(acc));
        assert_eq!(sup.counters().unwrap(), counters);
        assert_eq!(sup.recoveries(), 1);
        assert_eq!(sup.last_recovery().unwrap().replayed_cycles, 16);
    }

    #[test]
    fn step_and_poke_paths_recover_too() {
        let c = ctrl(&[10], true);
        let mut sup = SupervisedSession::new(
            factory(&c),
            SuperviseOptions {
                checkpoint_every: 4,
                max_recoveries: 2,
            },
        )
        .unwrap();
        sup.poke_u64("in", 5).unwrap();
        sup.step(16).unwrap();
        assert_eq!(sup.recoveries(), 1);
        // Clean equivalent: poke 5 then 16 held-input cycles.
        let c2 = ctrl(&[], true);
        let mut clean = factory(&c2)().unwrap();
        clean.poke_u64("in", 5).unwrap();
        clean.step(16).unwrap();
        assert_eq!(sup.peek_u64("acc").unwrap(), clean.peek_u64("acc").unwrap());
        assert_eq!(sup.cycle(), 16);
    }

    /// Without state export the journal is never truncated, so replay
    /// must not expand it: a run of journaled steps reaches the fresh
    /// backend as one `step` call, not one call (or frame) per cycle.
    #[test]
    fn replay_merges_a_run_of_steps_into_one_call() {
        let c = ctrl(&[45], false);
        let mut sup = SupervisedSession::new(factory(&c), SuperviseOptions::default()).unwrap();
        sup.step(20).unwrap();
        sup.step(20).unwrap();
        sup.step(10).unwrap();
        assert_eq!(sup.recoveries(), 1);
        // 20, 20, the 10 that died at cycle 45, one merged replay of
        // the journaled 40, then the retried 10.
        assert_eq!(c.borrow().steps, vec![20, 20, 10, 40, 10]);
        let stats = sup.last_recovery().unwrap();
        assert_eq!((stats.replayed_cycles, stats.journal_len), (40, 2));
        assert_eq!(sup.cycle(), 50);
    }

    #[test]
    fn gives_up_after_max_recoveries() {
        let c = ctrl(&[4, 5, 6], true);
        let mut sup = SupervisedSession::new(
            factory(&c),
            SuperviseOptions {
                checkpoint_every: 0,
                max_recoveries: 2,
            },
        )
        .unwrap();
        let err = sup.step(64).unwrap_err();
        assert!(matches!(err, GsimError::SessionLost(_)), "{err}");
        assert_eq!(sup.recoveries(), 2);
    }

    #[test]
    fn snapshots_survive_crashes() {
        let c = ctrl(&[25], true);
        let mut sup = SupervisedSession::new(
            factory(&c),
            SuperviseOptions {
                checkpoint_every: 8,
                max_recoveries: 2,
            },
        )
        .unwrap();
        sup.run_scenario(&ramp(0, 10, |at| at + 1)).unwrap();
        let at10 = sup.peek_u64("acc").unwrap();
        let snap = sup.snapshot().unwrap();
        // Continue across a crash at cycle 25, then roll back.
        sup.run_scenario(&ramp(10, 30, |at| at + 1)).unwrap();
        assert_eq!(sup.recoveries(), 1);
        sup.restore(snap).unwrap();
        assert_eq!(sup.cycle(), 10);
        assert_eq!(sup.peek_u64("acc").unwrap(), at10);
        // And the restored timeline replays identically.
        sup.run_scenario(&ramp(10, 30, |at| at + 1)).unwrap();
        let c2 = ctrl(&[], true);
        let mut clean = factory(&c2)().unwrap();
        clean.run_scenario(&ramp(0, 30, |at| at + 1)).unwrap();
        assert_eq!(sup.peek_u64("acc").unwrap(), clean.peek_u64("acc").unwrap());
    }

    #[test]
    fn inner_restore_without_export_forfeits_recovery() {
        let c = ctrl(&[20], false);
        let mut sup = SupervisedSession::new(factory(&c), SuperviseOptions::default()).unwrap();
        sup.step(5).unwrap();
        let snap = sup.snapshot().unwrap();
        sup.restore(snap).unwrap();
        let err = sup.step(30).unwrap_err();
        assert!(matches!(err, GsimError::SessionLost(_)), "{err}");
        assert_eq!(sup.recoveries(), 0);
    }

    #[test]
    fn non_fatal_errors_do_not_trigger_recovery() {
        let c = ctrl(&[], true);
        let mut sup = SupervisedSession::new(factory(&c), SuperviseOptions::default()).unwrap();
        let err = sup.poke_u64("nonesuch", 1).unwrap_err();
        assert!(matches!(err, GsimError::UnknownSignal(_)));
        assert_eq!(sup.recoveries(), 0);
        assert_eq!(c.borrow().spawns, 1);
        assert_eq!(sup.journal_len(), 0);
    }
}
