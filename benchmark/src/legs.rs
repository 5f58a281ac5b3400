//! The timed legs every workload is made of: batch-rate legs on one
//! session each, and closed-loop clients that send one-cycle requests
//! and run whole session lifecycles.
//!
//! Nothing is timed in one stretch. A run is [`SEGMENTS`] rounds after
//! one untimed warm-up round, and in every round each leg gets one
//! segment: the five samples behind a median are then spread over the
//! whole run, so a slow phase of the host — they last seconds here —
//! spoils at most a minority of them. All stimulus goes through
//! `Session::run_scenario`.

use crate::checks::Checks;
use crate::inputs::{Batch, LIFECYCLE_STEPS};
use crate::span::{Span, SpanId, Tracer};
use crate::stats::{percentile, summarize, Summary, TooFewSamples};
use gsim_sim::{GsimError, Scenario, Session, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Timed segments per leg (rounds per run, not counting the warm-up).
pub const SEGMENTS: usize = 5;

/// The warm-up segment is this long at most (first-touch page faults,
/// lazy lowering and cache fill are over long before).
const WARMUP_MAX_S: f64 = 0.25;

/// One-cycle requests sent, untimed, in the warm-up round.
const WARMUP_REQUESTS: usize = 200;

/// A client keeps requesting in its last round until it has timed this
/// many, so that p99 always has ten samples beyond it (and, the frame
/// tables being shorter, one whole pass is always timed).
const MIN_REQUESTS: usize = 1200;

/// Round-trip times are kept in a ring of this many samples, written
/// once when it is made, so that `peak_rss_mb` does not depend on how
/// many requests a run got through.
const STEP_RING: usize = 1 << 17;

/// stuCore is stepped this many cycles between `halt` polls while the
/// length of a program run is being found.
const HALT_POLL_CYCLES: u64 = 4096;
const HALT_POLL_MAX: u64 = 64 << 20;

/// Repeats a [`Batch`] on one session.
struct BatchRunner<'b> {
    batch: &'b Batch,
    next_chunk: usize,
    /// Cycles from the reset pulse to past `ecall` (programs only).
    program_cycles: u64,
}

impl BatchRunner<'_> {
    /// Runs one unit of work, checks what it can, and returns the
    /// cycles simulated.
    fn run_once(&mut self, s: &mut dyn Session, checks: &mut Checks) -> Result<u64, GsimError> {
        match self.batch {
            Batch::Chunks(chunks) => {
                let chunk = &chunks[self.next_chunk];
                self.next_chunk = (self.next_chunk + 1) % chunks.len();
                s.run_scenario(chunk)?;
                Ok(chunk.cycles())
            }
            Batch::Program {
                pre,
                expected_result,
            } => {
                s.run_scenario(pre)?;
                if self.program_cycles == 0 {
                    // First run on this session, always in the warm-up
                    // round: find how long the program is.
                    while s.peek_u64("halt")? != Some(1) && self.program_cycles < HALT_POLL_MAX {
                        s.step(HALT_POLL_CYCLES)?;
                        self.program_cycles += HALT_POLL_CYCLES;
                    }
                } else {
                    s.step(self.program_cycles)?;
                }
                let (halt, result) = (s.peek_u64("halt")?, s.peek_u64("result")?);
                checks.check(halt == Some(1) && result == Some(*expected_result), || {
                    format!(
                        "{}: halt {halt:?}, result {result:?}, host model {expected_result}",
                        s.backend()
                    )
                });
                Ok(pre.cycles() + self.program_cycles)
            }
        }
    }
}

/// A measured rate: simulated cycles per host second.
pub struct Rate {
    pub hz: Summary,
    pub cycles: u64,
    pub secs: f64,
}

/// One batch leg: a session (reset already applied), its work, and the
/// rates of the segments timed so far.
pub struct BatchLeg<'a> {
    name: &'static str,
    session: Box<dyn Session + 'a>,
    runner: BatchRunner<'a>,
    segment: Duration,
    /// `false` on the leg a traced run repeats with tracing off.
    spans: bool,
    rates: Vec<f64>,
    cycles: u64,
    secs: f64,
}

impl<'a> BatchLeg<'a> {
    /// `secs` is the leg's share of the run, split over its segments.
    pub fn new(
        name: &'static str,
        session: Box<dyn Session + 'a>,
        batch: &'a Batch,
        secs: f64,
    ) -> BatchLeg<'a> {
        BatchLeg {
            name,
            session,
            runner: BatchRunner {
                batch,
                next_chunk: 0,
                program_cycles: 0,
            },
            segment: Duration::from_secs_f64(secs / SEGMENTS as f64),
            spans: true,
            rates: Vec::with_capacity(SEGMENTS),
            cycles: 0,
            secs: 0.0,
        }
    }

    pub fn untraced(mut self) -> BatchLeg<'a> {
        self.spans = false;
        self
    }

    /// Runs this round's segment (round 0 is the untimed warm-up). One
    /// span per segment when tracing.
    pub fn segment(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        round: usize,
        checks: &mut Checks,
    ) -> Result<(), GsimError> {
        let (label, len) = match round {
            0 => (
                "warmup",
                self.segment.min(Duration::from_secs_f64(WARMUP_MAX_S)),
            ),
            _ => ("segment", self.segment),
        };
        let open = self
            .spans
            .then(|| tracer.begin(parent, &format!("{}.{label}", self.name)));
        let t = Instant::now();
        let mut cycles = 0;
        while cycles == 0 || t.elapsed() < len {
            cycles += self.runner.run_once(&mut *self.session, checks)?;
        }
        let dt = t.elapsed().as_secs_f64();
        if let Some(open) = open {
            tracer.end_with(open, vec![("cycles", cycles)]);
        }
        if round > 0 {
            self.rates.push(cycles as f64 / dt);
            self.cycles += cycles;
            self.secs += dt;
        }
        Ok(())
    }

    /// Closes the leg: its name, the median rate, and the session for
    /// whatever the caller still has to read from it.
    pub fn finish(self) -> (&'static str, Rate, Box<dyn Session + 'a>) {
        let rate = Rate {
            hz: summarize(&self.rates),
            cycles: self.cycles,
            secs: self.secs,
        };
        (self.name, rate, self.session)
    }
}

/// Opens one more session on the workload's session backend.
pub type Opener<'a> = dyn FnMut() -> Result<Box<dyn Session>, GsimError> + 'a;

/// What the clients of a workload do, and for how long per round.
pub struct ClientWork<'a> {
    /// Loads and reset pulse for the held session.
    pub pre: &'a Scenario,
    /// One-frame scenarios; request `k` sends frame `k mod len`.
    pub frames: &'a [Scenario],
    /// Lifecycle preambles with the probe value each must end on.
    pub lifecycles: &'a [(Scenario, Value)],
    pub probe: &'a str,
    /// Seconds of requests and of lifecycles in each timed round.
    pub request_slice: f64,
    pub lifecycle_slice: f64,
    /// Traced runs: seconds of requests without spans in each round,
    /// for `harness.trace_overhead`.
    pub untraced_slice: f64,
    /// The span of the current round, parent of the request spans;
    /// stored by the main thread before it lets the clients go.
    pub round_span: AtomicU64,
}

/// Round-trip samples in a fixed ring (see [`STEP_RING`]).
struct Ring {
    us: Vec<f64>,
    seen: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            // Not zeros: those come as untouched pages, and the ring
            // would grow into memory request by request after all.
            us: vec![f64::NAN; STEP_RING],
            seen: 0,
        }
    }

    fn push(&mut self, us: f64) {
        self.us[self.seen % STEP_RING] = us;
        self.seen += 1;
    }

    fn samples(&self) -> &[f64] {
        &self.us[..self.seen.min(STEP_RING)]
    }
}

/// One closed-loop client: it holds one session for one-cycle requests
/// and opens and closes others for lifecycles, a slice of each per
/// round, and sends the next request only when the last one returned.
pub struct Client {
    held: Option<Box<dyn Session>>,
    /// Cycle of the held session before the first counted request.
    first_cycle: u64,
    requests: u64,
    next_lifecycle: usize,
    log: ClientLog,
}

/// What one client measured; unlike the client it can cross threads.
pub struct ClientLog {
    step_us: Ring,
    /// Mean round trip of each whole pass through the frame table.
    pass_us: Vec<f64>,
    /// Round trips of the pass under way, added up, and how many.
    pass_sum_us: f64,
    pass_requests: usize,
    untraced_us: Ring,
    open_ms: Vec<f64>,
    /// Lifecycles per second of each timed round.
    lifecycle_rates: Vec<f64>,
    pub checks: Checks,
    pub spans: Vec<Span>,
}

impl ClientLog {
    /// Logs one timed round trip; a pass is `pass` requests long.
    fn record(&mut self, us: f64, pass: usize) {
        self.step_us.push(us);
        self.pass_sum_us += us;
        self.pass_requests += 1;
        if self.pass_requests == pass {
            self.pass_us.push(self.pass_sum_us / pass as f64);
            (self.pass_sum_us, self.pass_requests) = (0.0, 0);
        }
    }
}

impl Client {
    pub fn new() -> Client {
        Client {
            held: None,
            first_cycle: 0,
            requests: 0,
            next_lifecycle: 0,
            log: ClientLog {
                step_us: Ring::new(),
                pass_us: Vec::new(),
                pass_sum_us: 0.0,
                pass_requests: 0,
                untraced_us: Ring::new(),
                open_ms: Vec::new(),
                lifecycle_rates: Vec::with_capacity(SEGMENTS),
                checks: Checks::default(),
                spans: Vec::new(),
            },
        }
    }

    /// Records one request's span under the current round, when tracing.
    fn span(
        &mut self,
        tracer: &Tracer,
        work: &ClientWork<'_>,
        name: &str,
        t: Instant,
        end: Instant,
    ) {
        if tracer.enabled() {
            let round = work.round_span.load(Ordering::SeqCst);
            self.log.spans.push(tracer.local(round, name, t, end));
        }
    }

    /// Sends one one-cycle request on the held session and returns its
    /// round trip, or `None` once the session has failed.
    fn request(&mut self, work: &ClientWork<'_>) -> Option<(Instant, Instant)> {
        let s = self.held.as_mut()?;
        let frame = &work.frames[self.requests as usize % work.frames.len()];
        let t = Instant::now();
        let r = s.run_scenario(frame);
        let end = Instant::now();
        self.requests += 1;
        if self.log.checks.ok("one-cycle request", r).is_none() {
            self.held = None;
            return None;
        }
        Some((t, end))
    }

    fn requests_for(
        &mut self,
        tracer: &Tracer,
        work: &ClientWork<'_>,
        secs: f64,
        traced: bool,
        at_least: usize,
    ) {
        let begun = Instant::now();
        while begun.elapsed().as_secs_f64() < secs || self.log.step_us.seen < at_least {
            let Some((t, end)) = self.request(work) else {
                return;
            };
            let us = (end - t).as_nanos() as f64 / 1e3;
            if traced {
                self.log.record(us, work.frames.len());
                self.span(tracer, work, "request.step", t, end);
            } else {
                self.log.untraced_us.push(us);
            }
        }
    }

    /// One lifecycle: open → preamble → step → peek → close, checked
    /// against the value computed in-process.
    fn lifecycle(
        &mut self,
        tracer: &Tracer,
        work: &ClientWork<'_>,
        open: &mut Opener<'_>,
        timed: bool,
    ) -> bool {
        let (pre, expected) = &work.lifecycles[self.next_lifecycle % work.lifecycles.len()];
        self.next_lifecycle += 1;
        let t = Instant::now();
        let Some(mut s) = self.log.checks.ok("open", open()) else {
            return false;
        };
        let opened = Instant::now();
        let got = s
            .run_scenario(pre)
            .and_then(|()| s.step(LIFECYCLE_STEPS))
            .and_then(|()| s.peek(work.probe));
        let backend = s.backend();
        drop(s);
        let end = Instant::now();
        if let Some(got) = self.log.checks.ok("lifecycle", got) {
            let probe = work.probe;
            self.log.checks.check(got == *expected, || {
                format!("{backend}: {probe} = {got:?} after a lifecycle, in-process {expected:?}")
            });
        }
        if timed {
            self.log.open_ms.push((opened - t).as_nanos() as f64 / 1e6);
            self.span(tracer, work, "request.open", t, opened);
            self.span(tracer, work, "request.lifecycle", opened, end);
        }
        true
    }

    /// This client's share of one round (round 0 is the warm-up, in
    /// which the held session is opened and nothing is timed).
    pub fn round(
        &mut self,
        tracer: &Tracer,
        work: &ClientWork<'_>,
        open: &mut Opener<'_>,
        round: usize,
    ) {
        if round == 0 {
            self.held = self.log.checks.ok("open", open());
            if let Some(s) = self.held.as_mut() {
                let reset = s.run_scenario(work.pre);
                if self.log.checks.ok("reset", reset).is_none() {
                    self.held = None;
                }
            }
            for _ in 0..WARMUP_REQUESTS {
                self.request(work);
            }
            self.first_cycle = self.held.as_ref().map_or(0, |s| s.cycle());
            self.requests = 0;
            self.lifecycle(tracer, work, open, false);
            return;
        }
        let at_least = if round == SEGMENTS { MIN_REQUESTS } else { 0 };
        self.requests_for(tracer, work, work.request_slice, true, at_least);
        if work.untraced_slice > 0.0 {
            self.requests_for(tracer, work, work.untraced_slice, false, 0);
        }
        let begun = Instant::now();
        let mut done = 0;
        while begun.elapsed().as_secs_f64() < work.lifecycle_slice {
            if !self.lifecycle(tracer, work, open, true) {
                return;
            }
            done += 1;
        }
        self.log
            .lifecycle_rates
            .push(f64::from(done) / begun.elapsed().as_secs_f64());
    }

    /// After the last round: no request was lost on the way.
    pub fn finish(mut self) -> ClientLog {
        if let Some(s) = self.held.take() {
            let (at, want) = (s.cycle(), self.first_cycle + self.requests);
            self.log.checks.check(at == want, || {
                format!(
                    "{}: at cycle {at} after {} one-cycle requests, not {want}",
                    s.backend(),
                    self.requests
                )
            });
        }
        self.log
    }
}

/// The session metrics of one workload, pooled over its clients.
pub struct SessionStats {
    /// Over the passes of all clients: each pass's mean round trip.
    pub step_pass_us: Summary,
    /// Over single requests.
    pub step_p50_us: f64,
    pub step_p99_us: f64,
    pub step_samples: usize,
    /// p50 of the requests sent without spans (traced runs only).
    pub untraced_p50_us: Option<f64>,
    pub open_p50_ms: f64,
    pub open_samples: usize,
    pub sessions_per_s: Summary,
}

/// Pools the clients: percentiles over all their requests, the median
/// over all their passes, and per round the lifecycle rates of all
/// clients added up.
///
/// A pass is one trip through the whole frame table, so every pass
/// sends the same frames and its mean round trip is a steady number.
/// The median over single requests is not, where a design's cycles
/// come in two kinds: on xs_idle half take ~0.8 us (nothing active)
/// and half ~10 us, the median sits on the cliff between them, and
/// which side it falls on changes with the seed (0.95 to 1.6 us).
pub fn pool(clients: &[ClientLog]) -> Result<SessionStats, TooFewSamples> {
    let sorted = |pick: fn(&ClientLog) -> &[f64]| {
        let mut v: Vec<f64> = clients
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let step_us = sorted(|c| c.step_us.samples());
    let untraced_us = sorted(|c| c.untraced_us.samples());
    let open_ms = sorted(|c| &c.open_ms);
    let pass_us = sorted(|c| &c.pass_us);
    let rounds = clients
        .iter()
        .map(|c| c.lifecycle_rates.len())
        .min()
        .unwrap_or(0);
    if rounds == 0 || pass_us.is_empty() {
        return Err(TooFewSamples {
            percentile: 50.0,
            samples: 0,
        });
    }
    let rates: Vec<f64> = (0..rounds)
        .map(|r| clients.iter().map(|c| c.lifecycle_rates[r]).sum())
        .collect();
    Ok(SessionStats {
        step_pass_us: summarize(&pass_us),
        step_p50_us: percentile(&step_us, 50.0)?,
        step_p99_us: percentile(&step_us, 99.0)?,
        step_samples: step_us.len(),
        untraced_p50_us: percentile(&untraced_us, 50.0).ok(),
        open_p50_ms: percentile(&open_ms, 50.0)?,
        open_samples: open_ms.len(),
        sessions_per_s: summarize(&rates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(step_us: impl Iterator<Item = f64>, rates: &[f64]) -> ClientLog {
        let mut c = Client::new().finish();
        step_us.for_each(|us| c.record(us, 400));
        c.open_ms = (0..40).map(f64::from).collect();
        c.lifecycle_rates = rates.to_vec();
        c
    }

    #[test]
    fn clients_pool_requests_and_add_up_lifecycle_rates_per_round() {
        let a = client((0..1000).map(f64::from), &[10.0, 20.0, 30.0, 40.0, 50.0]);
        let b = client((1000..2000).map(f64::from), &[5.0, 5.0, 5.0, 5.0, 5.0]);
        let st = pool(&[a, b]).unwrap();
        assert_eq!(
            (st.step_p50_us, st.step_p99_us, st.step_samples),
            (999.0, 1979.0, 2000)
        );
        // Two whole passes of 400 per client; the 200 left over of each
        // are no pass. Means 199.5, 599.5, 1199.5, 1599.5.
        assert_eq!((st.step_pass_us.median, st.step_pass_us.n), (899.5, 4));
        assert_eq!(st.sessions_per_s.median, 35.0);
        assert_eq!(st.sessions_per_s.n, SEGMENTS);
        assert_eq!(st.open_samples, 80);
        assert_eq!(st.untraced_p50_us, None);
    }

    #[test]
    fn too_few_requests_are_refused_not_reported() {
        let c = client(std::iter::repeat_n(1.0, 500), &[1.0; SEGMENTS]);
        assert!(pool(&[c]).is_err());
        // Enough requests for a median, but no whole pass.
        let c = client(std::iter::repeat_n(1.0, 399), &[1.0; SEGMENTS]);
        assert!(pool(&[c]).is_err());
    }

    #[test]
    fn the_ring_keeps_the_latest_samples_in_fixed_space() {
        let mut r = Ring::new();
        (0..STEP_RING + 3).for_each(|i| r.push(i as f64));
        assert_eq!(r.samples().len(), STEP_RING);
        assert_eq!(
            r.samples()[..3],
            [
                STEP_RING as f64,
                (STEP_RING + 1) as f64,
                (STEP_RING + 2) as f64
            ]
        );
    }
}
