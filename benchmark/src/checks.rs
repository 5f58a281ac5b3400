//! Correctness accounting: every check and every request counts as
//! attempted, and a run with one failure exits non-zero.

use gsim_graph::interp::RefInterp;
use gsim_graph::Graph;
use gsim_sim::{GsimError, Scenario, Session, Value};

/// How many failure messages are kept for the report.
const KEPT_MESSAGES: usize = 8;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// `--inject-failure`: corrupt the expected value of the first
    /// comparison, to prove that a wrong result fails the command.
    inject: bool,
}

impl Checks {
    pub fn new(inject_failure: bool) -> Checks {
        Checks {
            inject: inject_failure,
            ..Checks::default()
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let ok = ok && !std::mem::take(&mut self.inject);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// A request that must succeed; its error counts as a failure.
    pub fn ok<T>(&mut self, what: &str, r: Result<T, GsimError>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds the counts a client thread kept locally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// The named outputs after each of the first cycles of a run.
pub type OutputTrace = Vec<Vec<Value>>;

/// Replays `pre` and then `frames` (one cycle each) on the reference
/// interpreter, recording `outputs` after every frame of `frames`.
///
/// # Errors
///
/// A name the graph does not have, as the interpreter's message.
pub fn reference_trace(
    graph: &Graph,
    pre: &Scenario,
    frames: &[Scenario],
    outputs: &[String],
) -> Result<OutputTrace, String> {
    let mut r = RefInterp::new(graph).map_err(|e| format!("{e:?}"))?;
    let mut trace = Vec::with_capacity(frames.len());
    for (record, sc) in std::iter::once((false, pre)).chain(frames.iter().map(|f| (true, f))) {
        for (mem, image) in &sc.loads {
            r.load_mem(mem, image)?;
        }
        for frame in &sc.frames {
            for (name, v) in frame {
                r.poke_u64(name, *v)?;
            }
            r.step();
        }
        if record {
            let row = outputs
                .iter()
                .map(|o| r.peek(o).cloned().ok_or_else(|| format!("no output {o:?}")))
                .collect::<Result<Vec<Value>, String>>()?;
            trace.push(row);
        }
    }
    Ok(trace)
}

/// The same replay on a backend, through the `Session` API.
///
/// # Errors
///
/// The first session error.
pub fn session_trace(
    s: &mut dyn Session,
    pre: &Scenario,
    frames: &[Scenario],
    outputs: &[String],
) -> Result<OutputTrace, GsimError> {
    s.run_scenario(pre)?;
    let mut trace = Vec::with_capacity(frames.len());
    for f in frames {
        s.run_scenario(f)?;
        let row = outputs
            .iter()
            .map(|o| s.peek(o))
            .collect::<Result<Vec<Value>, GsimError>>()?;
        trace.push(row);
    }
    Ok(trace)
}

/// One check per replayed cycle: the backend's outputs equal the
/// reference interpreter's.
pub fn compare_traces(checks: &mut Checks, backend: &str, got: &OutputTrace, want: &OutputTrace) {
    checks.check(got.len() == want.len(), || {
        format!(
            "{backend}: replayed {} cycles, reference {}",
            got.len(),
            want.len()
        )
    });
    for (cycle, (g, w)) in got.iter().zip(want).enumerate() {
        checks.check(g == w, || {
            format!("{backend}: cycle {cycle} outputs {g:?}, reference {w:?}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_failure_fails_exactly_one_check() {
        let mut c = Checks::new(true);
        c.check(true, || "first comparison".into());
        c.check(true, String::new);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.messages, ["first comparison"]);
    }

    #[test]
    fn errors_count_as_failed_requests_and_merge_adds_up() {
        let mut a = Checks::new(false);
        assert_eq!(a.ok("step", Ok(7)), Some(7));
        assert_eq!(a.ok::<()>("step", Err(GsimError::Io("gone".into()))), None);
        let mut b = Checks::new(false);
        b.check(false, || "wrong out".into());
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (3, 2));
        assert_eq!(a.messages.len(), 2);
    }
}
