//! The typed stimulus value: one description of *what to drive*,
//! shared by every way of driving it.
//!
//! Before this module the repo had three ad-hoc stimulus
//! representations — the text files the emitted AoT binary parses,
//! per-cycle stimulus closures in harness code, and the bench harness's
//! per-cycle frame vectors. A [`Scenario`] subsumes all three: memory
//! images applied before cycle 0 plus a sequence of per-cycle poke
//! frames, with builder combinators ([`Scenario::hold`],
//! [`Scenario::repeat`]), a deterministic [`Scenario::perturb`] for
//! branch corpora, and a [`Scenario::parse`] / [`Scenario::render`]
//! round trip with the existing `!load` / `name=hex` text format — so
//! the CLI, the bench harness, the tests, and the wire all speak the
//! same value.
//!
//! The value itself and its text format live in the std-only
//! `scenario_text.rs`, which emitted AoT simulators embed.

pub use crate::scenario_text::Scenario;
use crate::session::GsimError;

/// splitmix64 — the same tiny deterministic mixer the test harness
/// uses for stimulus words; good enough to decorrelate branch
/// corpora, dependency-free, and stable across platforms.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Scenario {
    /// An empty scenario (no loads, no frames).
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Adds a memory image to load before cycle 0.
    pub fn load(mut self, mem: &str, image: Vec<u64>) -> Scenario {
        self.loads.push((mem.to_string(), image));
        self
    }

    /// Appends one frame of `(input, value)` pokes.
    pub fn frame(mut self, pokes: &[(&str, u64)]) -> Scenario {
        self.frames
            .push(pokes.iter().map(|&(n, v)| (n.to_string(), v)).collect());
        self
    }

    /// Appends `n` empty frames: the inputs hold their current values
    /// for `n` cycles.
    pub fn hold(mut self, n: u64) -> Scenario {
        for _ in 0..n {
            self.frames.push(Vec::new());
        }
        self
    }

    /// Appends `k` copies of the last frame (no-op on an empty
    /// scenario). `repeat(k)` after a `frame(...)` drives the same
    /// pokes for `k` further cycles.
    pub fn repeat(mut self, k: u64) -> Scenario {
        if let Some(last) = self.frames.last().cloned() {
            for _ in 0..k {
                self.frames.push(last.clone());
            }
        }
        self
    }

    /// Number of frames: the cycle count [`crate::Session::run_scenario`]
    /// advances a session by.
    pub fn cycles(&self) -> u64 {
        self.frames.len() as u64
    }

    /// A deterministic variant of this scenario: every poke value is
    /// XOR-perturbed by a splitmix64 stream keyed on `seed` and the
    /// poke's position. Seed 0 returns the scenario unchanged, so
    /// branch 0 of a corpus is always the base scenario. Loads and
    /// frame *structure* (which inputs are driven on which cycles)
    /// are preserved — only values change — and backends mask pokes
    /// to the input width, so perturbed corpora stay well-formed on
    /// every backend.
    pub fn perturb(&self, seed: u64) -> Scenario {
        if seed == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        for (c, frame) in out.frames.iter_mut().enumerate() {
            for (i, (_, v)) in frame.iter_mut().enumerate() {
                *v ^= splitmix64(seed ^ ((c as u64) << 20) ^ (i as u64));
            }
        }
        out
    }

    /// Parses the stimulus text format back into a scenario.
    /// `parse(render())` round-trips exactly; comments are dropped.
    ///
    /// # Errors
    ///
    /// [`GsimError::Parse`] with a line-numbered message for bad hex,
    /// a missing `!load` memory name, a token without `=`, or a poke
    /// value wider than 64 bits (session pokes are `u64`; wider
    /// inputs are driven via [`crate::Session::poke`] directly).
    pub fn parse(text: &str) -> Result<Scenario, GsimError> {
        Scenario::parse_text(text).map_err(GsimError::Parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::new()
            .load("imem", vec![0x13, 0x00000513, 0xffff_ffff_ffff_ffff])
            .frame(&[("rst", 1), ("in0", 0xff)])
            .frame(&[("rst", 0)])
            .hold(2)
            .repeat(1)
    }

    #[test]
    fn combinators_build_expected_frames() {
        let sc = sample();
        assert_eq!(sc.cycles(), 5);
        assert_eq!(sc.frames[0].len(), 2);
        assert_eq!(sc.frames[2], Vec::new());
        // repeat(1) copies the last frame (an empty hold frame).
        assert_eq!(sc.frames[4], sc.frames[3]);
        let sc2 = Scenario::new().frame(&[("a", 7)]).repeat(2);
        assert_eq!(sc2.cycles(), 3);
        assert!(sc2.frames.iter().all(|f| f == &sc2.frames[0]));
    }

    #[test]
    fn render_parse_round_trip() {
        let sc = sample();
        let text = sc.render();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(sc, back);
        // Comments and surrounding whitespace are tolerated.
        let commented = format!("# header\n{text}");
        assert_eq!(Scenario::parse(&commented).unwrap(), sc);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let e = Scenario::parse("a=1\nbad token\n").unwrap_err();
        assert!(
            matches!(&e, GsimError::Parse(m) if m.contains("line 2")),
            "{e}"
        );
        let e = Scenario::parse("!load\n").unwrap_err();
        assert!(matches!(e, GsimError::Parse(_)));
        let e = Scenario::parse("a=1ffffffffffffffff\n").unwrap_err();
        assert!(
            matches!(&e, GsimError::Parse(m) if m.contains("oversized")),
            "{e}"
        );
    }

    /// A bare `!load` used to fall through to the frame branch and
    /// report `expected name=hex` — the error must instead name the
    /// real problem, pinned to the offending line, and survive a
    /// wire round trip.
    #[test]
    fn bare_load_reports_its_line_and_cause() {
        let e = Scenario::parse("a=1\n!load\n").unwrap_err();
        let GsimError::Parse(m) = &e else {
            panic!("expected Parse, got {e}");
        };
        assert_eq!(m, "line 2: !load needs a memory name");
        let rt = GsimError::from_wire(&e.to_wire());
        assert_eq!(rt.to_string(), e.to_string(), "wire round trip");
    }

    #[test]
    fn empty_lines_are_hold_frames() {
        let sc = Scenario::parse("rst=1\n\nrst=0\n").unwrap();
        assert_eq!(sc.cycles(), 3);
        assert!(sc.frames[1].is_empty());
    }

    #[test]
    fn perturb_is_deterministic_and_structure_preserving() {
        let sc = sample();
        assert_eq!(sc.perturb(0), sc);
        let a = sc.perturb(42);
        let b = sc.perturb(42);
        assert_eq!(a, b);
        assert_ne!(a, sc);
        assert_eq!(a.loads, sc.loads);
        for (pf, bf) in a.frames.iter().zip(&sc.frames) {
            assert_eq!(pf.len(), bf.len());
            for ((pn, _), (bn, _)) in pf.iter().zip(bf) {
                assert_eq!(pn, bn);
            }
        }
        assert_ne!(sc.perturb(1), sc.perturb(2));
    }
}
