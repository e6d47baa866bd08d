//! `trace_check`: tiny schema validator for Chrome trace JSON artifacts.
//!
//! ```text
//! trace_check run.trace.json [more.json ...]
//! ```
//!
//! Parses each file with the same strict schema the `stca trace report`
//! importer uses, prints a one-line summary per file, and exits nonzero
//! on the first invalid artifact — the CI `trace-smoke` job gates on it.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

fn check(path: &Path) -> Result<String, String> {
    let dump = stca_trace::read_chrome_json(path).map_err(|e| e.to_string())?;
    let errors = dump.traces.iter().filter(|t| t.is_error_class()).count();
    let spans: usize = dump.traces.iter().map(|t| t.spans.len()).sum();
    Ok(format!(
        "{}: ok — {} traces ({} error-class), {} spans, seed {}, 1/{} sampling",
        path.display(),
        dump.traces.len(),
        errors,
        spans,
        dump.seed,
        dump.sample_every.max(1),
    ))
}

fn main() -> ExitCode {
    // a literal "--" is an option terminator, not a file
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--").collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("usage: trace_check <trace.json> [more.json ...]");
        return ExitCode::from(2);
    }
    for arg in &args {
        match check(Path::new(arg)) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{arg}: INVALID — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
