//! Deterministic per-request span tracing, flight recorder, and
//! run-artifact toolkit for the STCA serving plane.
//!
//! The serving loop replays arrivals on a virtual clock; this crate
//! records each request's story as a trace of stage spans, retains a
//! bounded window of them in a [`FlightRecorder`] (error-class traces
//! always, normal traces by seeded head-sampling), and turns dumps into
//! reviewable artifacts: Chrome `trace_event` JSON (Perfetto-loadable),
//! an SVG waterfall, and per-stage latency tables cross-checked against
//! the decision log.
//!
//! Determinism contract: trace ids, sampling verdicts, span boundaries,
//! and every artifact byte are pure functions of the run's seeds and
//! configuration — never the wall clock or thread schedule — so they are
//! bit-identical at any `--threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod recorder;
pub mod report;
pub mod span;
pub mod svg;

pub use recorder::{
    active_dump, set_active, ActiveRecorderGuard, FlightRecorder, RecorderStats, TraceConfig,
    TraceDump,
};
pub use span::{AttrValue, Disposition, SpanRecord, Stage, Trace, TraceCtx};

use stca_fault::StcaError;
use std::path::Path;

/// Write a dump as Chrome `trace_event` JSON.
pub fn write_chrome_json(path: &Path, dump: &TraceDump) -> Result<(), StcaError> {
    std::fs::write(path, chrome::to_chrome_json(dump))
        .map_err(|e| StcaError::io(path.display().to_string(), e))
}

/// Write a dump as an SVG waterfall.
pub fn write_svg(path: &Path, dump: &TraceDump) -> Result<(), StcaError> {
    std::fs::write(path, svg::to_svg(dump))
        .map_err(|e| StcaError::io(path.display().to_string(), e))
}

/// Read and schema-validate a Chrome trace JSON file back into a dump.
pub fn read_chrome_json(path: &Path) -> Result<TraceDump, StcaError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| StcaError::io(path.display().to_string(), e))?;
    chrome::from_chrome_json(&text)
        .map_err(|e| StcaError::invalid_input(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Disposition;

    #[test]
    fn file_round_trip() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let mut ctx = rec.begin(0, 0.0);
        ctx.push_span(Stage::QueueWait, 0.0, 0.5);
        rec.record(ctx.finish(Disposition::Completed, 0.7));
        let dump = rec.dump();

        let dir = std::env::temp_dir().join("stca_trace_lib_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let json = dir.join("t.json");
        let svg = dir.join("t.svg");
        write_chrome_json(&json, &dump).expect("writes json");
        write_svg(&svg, &dump).expect("writes svg");
        assert_eq!(read_chrome_json(&json).expect("round-trips"), dump);
        assert!(std::fs::read_to_string(&svg)
            .expect("svg readable")
            .starts_with("<svg "));
        std::fs::remove_dir_all(&dir).ok();
    }
}
