//! The wave layer's sinks as the benchmark uses them.

use gsim_sim::{GsimError, Session};
use gsim_wave::{parse_vcd, VcdWriter, Wave, WaveCell, WaveSink};
use std::time::Instant;

fn write_vcd(wave: &Wave) -> std::io::Result<Vec<u8>> {
    let mut w = VcdWriter::new(Vec::new());
    w.start(&wave.top, &wave.signals)?;
    // A captured wave begins with its baseline: one record per signal.
    let (baseline, rest) = wave
        .changes
        .split_at(wave.signals.len().min(wave.changes.len()));
    let time = baseline.first().map_or(0, |c| c.0);
    let values: Vec<Vec<u64>> = baseline.iter().map(|c| c.2.clone()).collect();
    w.dumpvars(time, &values)?;
    for (time, signal, words) in rest {
        w.change(*time, *signal, words)?;
    }
    w.finish()?;
    Ok(w.into_inner())
}

/// What the wave layer does with one captured wave.
pub struct WaveCost {
    /// VCD bytes and change records (after the baseline) of the wave.
    pub vcd_bytes: usize,
    pub changes: usize,
    /// `VcdWriter` and `parse_vcd` throughput on it.
    pub write_mb_s: f64,
    pub parse_mb_s: f64,
}

/// Captures the wave `drive` produces on `s` with every portable signal
/// traced, and times a few write → parse round trips of it (medians).
/// The wave comes from a fixed pass, so its size repeats exactly.
///
/// # Errors
///
/// Session errors, and a round trip that does not reproduce the wave.
pub fn wave_cost(
    s: &mut dyn Session,
    drive: impl FnOnce(&mut dyn Session) -> Result<(), GsimError>,
) -> Result<WaveCost, GsimError> {
    let cell = WaveCell::new();
    s.trace_start(None, Box::new(cell.sink()))?;
    let driven = drive(s);
    s.trace_stop()?;
    driven?;
    let wave = cell.take();
    let (mut write, mut parse) = (Vec::new(), Vec::new());
    let mut vcd_bytes = 0;
    for _ in 0..9 {
        let t = Instant::now();
        let bytes = write_vcd(&wave)?;
        write.push(bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
        let text = String::from_utf8_lossy(&bytes);
        let t = Instant::now();
        let back = parse_vcd(&text).map_err(GsimError::Parse)?;
        parse.push(bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
        if back.canonical() != wave.canonical() {
            return Err(GsimError::Backend(
                "VCD write → parse changed the wave".into(),
            ));
        }
        vcd_bytes = bytes.len();
    }
    Ok(WaveCost {
        vcd_bytes,
        changes: wave.changes.len().saturating_sub(wave.signals.len()),
        write_mb_s: crate::stats::summarize(&write).median,
        parse_mb_s: crate::stats::summarize(&parse).median,
    })
}
