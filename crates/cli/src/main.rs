//! `tfq` — build, inspect and query temporal-fabric ledgers from the shell.
//!
//! ```text
//! tfq demo    <dir> [ds1|ds2|ds3] [--scale N] [--mode se|me] [--m2-u U] [--shards N]
//! tfq info    <dir>
//! tfq verify  <dir>
//! tfq block   <dir> <number>
//! tfq history <dir> <key>
//! tfq events  <dir> <key> <t1> <t2> [--engine tqf|m1|m2] [--u U]
//! tfq join    <dir> <t1> <t2>      [--engine tqf|m1|m2] [--u U]
//! tfq index   <dir> --u U [--from T1] [--to T2]      # build M1 indexes
//! tfq serve   <dir> [--addr H:P] [--slow-ms N]       # live /metrics endpoint
//! tfq bench-diff <baseline.json> <current.json>      # regression gate
//! ```
//!
//! Argument parsing is deliberately dependency-free.

mod args;
mod commands;
mod serve;

use std::process::ExitCode;

// Per-query resource accounting: every allocation in the process is
// counted and charged to the active span. Registered here in the binary
// root (a library registering a global allocator would conflict with any
// other allocator choice in the same link).
#[cfg(feature = "counting-alloc")]
#[global_allocator]
static ALLOC: fabric_telemetry::CountingAlloc = fabric_telemetry::CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `tfq ... | head` closes stdout early; the resulting broken-pipe panic
    // from println! is the conventional success path for a filtered CLI.
    // Keep the default hook for every other panic, but keep broken-pipe
    // quiet.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned();
        if !msg.as_deref().unwrap_or("").contains("Broken pipe") {
            default_hook(info);
        }
    }));
    match std::panic::catch_unwind(|| commands::dispatch(&argv)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("tfq: {e}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if msg.contains("Broken pipe") {
                ExitCode::SUCCESS
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}
