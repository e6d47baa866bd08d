//! Dependency-free SVG timeline/waterfall renderer for trace dumps.
//!
//! One row per retained trace (arrival order), one colored bar per stage
//! span on a shared virtual-time axis, with a stage legend and time
//! ticks. Output is deterministic: same dump, same bytes.

use crate::recorder::TraceDump;
use crate::span::{Stage, Trace};
use std::fmt::Write as _;

const ROW_H: f64 = 16.0;
const ROW_GAP: f64 = 4.0;
const MARGIN_LEFT: f64 = 170.0;
const MARGIN_TOP: f64 = 48.0;
const MARGIN_BOTTOM: f64 = 28.0;
const MARGIN_RIGHT: f64 = 20.0;
const PLOT_W: f64 = 860.0;
const TICKS: usize = 8;
/// Zero-length marker spans are drawn as thin slivers of this width.
const MARKER_W: f64 = 2.0;
/// Cap on rendered rows so a soak dump stays a viewable file.
pub const MAX_ROWS: usize = 400;

fn stage_color(stage: Stage) -> &'static str {
    match stage {
        Stage::Admission => "#6c757d",
        Stage::QueueWait => "#f0ad4e",
        Stage::Predict => "#3f7fbf",
        Stage::Decide => "#5cb85c",
        Stage::PolicyApply => "#9b59b6",
        Stage::Drain => "#d9534f",
        Stage::Route => "#17a2b8",
        Stage::Retrain => "#8d6e63",
        Stage::Shadow => "#34495e",
        Stage::Promote => "#2ecc71",
        Stage::Rollback => "#e67e22",
    }
}

fn fmt_num(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn row_label(trace: &Trace) -> String {
    let mut label = format!("#{} {}", trace.seq, trace.disposition.name());
    if trace.watchdog_retry {
        label.push_str(" ⟳");
    }
    if trace.breaker_transition {
        label.push_str(" ⚡");
    }
    label
}

/// Render a dump as an SVG waterfall. Rows beyond [`MAX_ROWS`] are
/// elided (noted in the subtitle) — error-class traces sort first in the
/// dump's retention, but here rows keep arrival order for readability.
pub fn to_svg(dump: &TraceDump) -> String {
    let shown = dump.traces.len().min(MAX_ROWS);
    let elided = dump.traces.len() - shown;
    let traces = &dump.traces[..shown];

    let (t0, t1) = traces.iter().fold((f64::MAX, f64::MIN), |(lo, hi), t| {
        (lo.min(t.arrival_s), hi.max(t.end_s))
    });
    let (t0, t1) = if traces.is_empty() || t1 <= t0 {
        (0.0, 1.0)
    } else {
        (t0, t1)
    };
    let span = t1 - t0;
    let x = |t: f64| MARGIN_LEFT + (t - t0) / span * PLOT_W;

    let height = MARGIN_TOP + shown as f64 * (ROW_H + ROW_GAP) + MARGIN_BOTTOM;
    let width = MARGIN_LEFT + PLOT_W + MARGIN_RIGHT;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(
        out,
        "<rect width=\"{width}\" height=\"{height}\" fill=\"#ffffff\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{MARGIN_LEFT}\" y=\"16\" font-size=\"14\" fill=\"#212529\">\
         stca trace waterfall — {} traces (seed {}, 1/{} sampling{})</text>",
        dump.traces.len(),
        dump.seed,
        dump.sample_every.max(1),
        if elided > 0 {
            format!(", {elided} rows elided")
        } else {
            String::new()
        }
    );

    // legend
    let mut lx = MARGIN_LEFT;
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "<rect x=\"{lx}\" y=\"24\" width=\"10\" height=\"10\" fill=\"{}\"/>",
            stage_color(stage)
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"33\" fill=\"#212529\">{}</text>",
            lx + 13.0,
            stage.name()
        );
        lx += 13.0 + 8.0 * stage.name().len() as f64 + 18.0;
    }

    // time axis + ticks
    let axis_y = height - MARGIN_BOTTOM + 6.0;
    let _ = writeln!(
        out,
        "<line x1=\"{MARGIN_LEFT}\" y1=\"{axis_y}\" x2=\"{}\" y2=\"{axis_y}\" \
         stroke=\"#adb5bd\"/>",
        MARGIN_LEFT + PLOT_W
    );
    for i in 0..=TICKS {
        let t = t0 + span * i as f64 / TICKS as f64;
        let tx = x(t);
        let _ = writeln!(
            out,
            "<line x1=\"{tx}\" y1=\"{MARGIN_TOP}\" x2=\"{tx}\" y2=\"{axis_y}\" \
             stroke=\"#e9ecef\"/>"
        );
        let _ = writeln!(
            out,
            "<text x=\"{tx}\" y=\"{}\" text-anchor=\"middle\" fill=\"#495057\">{}s</text>",
            axis_y + 14.0,
            fmt_num(t)
        );
    }

    // rows
    for (row, trace) in traces.iter().enumerate() {
        let y = MARGIN_TOP + row as f64 * (ROW_H + ROW_GAP);
        let label_fill = if trace.is_error_class() {
            "#c0392b"
        } else {
            "#212529"
        };
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\" fill=\"{label_fill}\">{}</text>",
            MARGIN_LEFT - 8.0,
            y + ROW_H - 4.0,
            row_label(trace)
        );
        for sp in &trace.spans {
            let x0 = x(sp.start_s);
            let w = ((sp.end_s - sp.start_s) / span * PLOT_W).max(MARKER_W);
            let _ = writeln!(
                out,
                "<rect x=\"{}\" y=\"{y}\" width=\"{}\" height=\"{ROW_H}\" \
                 fill=\"{}\"><title>{} {}s–{}s (trace 0x{:016x})</title></rect>",
                fmt_num(x0),
                fmt_num(w),
                stage_color(sp.stage),
                sp.stage.name(),
                fmt_num(sp.start_s),
                fmt_num(sp.end_s),
                trace.trace_id
            );
        }
    }

    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceConfig};
    use crate::span::Disposition;

    fn dump_with(n: u64) -> TraceDump {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 1024,
            error_capacity: 1024,
            ..TraceConfig::default()
        });
        for seq in 0..n {
            let mut ctx = rec.begin(seq, seq as f64 * 0.1);
            ctx.push_span(Stage::QueueWait, seq as f64 * 0.1, seq as f64 * 0.1 + 0.05);
            let disp = if seq % 5 == 0 {
                Disposition::ShedDeadline
            } else {
                Disposition::Completed
            };
            let t = ctx.finish(disp, seq as f64 * 0.1 + 0.2);
            rec.record(t);
        }
        rec.dump()
    }

    #[test]
    fn renders_wellformed_deterministic_svg() {
        let dump = dump_with(10);
        let svg = to_svg(&dump);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg ").count(), 1);
        // every stage in the legend, every trace a row label
        for stage in Stage::ALL {
            assert!(svg.contains(stage.name()));
        }
        assert!(svg.contains("#0 shed_deadline"));
        assert!(svg.contains("#1 completed"));
        // byte-stable
        assert_eq!(to_svg(&dump), svg);
    }

    #[test]
    fn empty_dump_still_renders() {
        let rec = FlightRecorder::new(TraceConfig::default());
        let svg = to_svg(&rec.dump());
        assert!(svg.starts_with("<svg "));
        assert!(svg.contains("0 traces"));
    }

    #[test]
    fn row_cap_elides_but_notes() {
        let dump = dump_with(MAX_ROWS as u64 + 25);
        let svg = to_svg(&dump);
        assert!(svg.contains("25 rows elided"));
        assert_eq!(svg.matches("<text x=\"162\"").count(), MAX_ROWS);
    }
}
