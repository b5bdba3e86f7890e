//! Cross-crate SimSanitizer integration: every built-in app x scheme
//! pipeline must replay with zero violations (the sanitizer is silent on
//! correct executions), and a real run's trace with its synchronization
//! edges or its queue pops removed must be flagged — as a race with
//! actor/cycle/address context, or as leaked queue slots (the sanitizer
//! is not vacuous). A sanitized run must also report exactly what the
//! same run reports unsanitized: the hooks observe, never steer.

use spzip_apps::run::{run_app_full, run_app_sanitized};
use spzip_apps::{AppName, Scheme};
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::ctrace::CTrace;
use spzip_sim::sanitize::{analyze, render, Code, RunContext, TraceEvent, Violation};
use spzip_sim::MachineConfig;
use std::sync::Arc;

fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

/// Runs every app under every scheme with the SimSanitizer on a machine
/// with the given knobs: each run must validate, replay with zero
/// violations, and report exactly what the same run reports unsanitized
/// (the hooks observe, never steer).
fn sanitize_every_app_every_scheme(scratchpad: Option<u32>, cmh: bool) {
    let g = Arc::new(community(&CommunityParams::web_crawl(512, 6), 23));
    let m = Arc::new(grid3d(6, 1, 3));
    for app in AppName::all() {
        let input = if app.is_matrix() { &m } else { &g };
        for scheme in Scheme::all() {
            let cfg = scheme.config();
            let (out, san) = run_app_sanitized(app, input, &cfg, tiny_machine(), scratchpad, cmh);
            assert!(
                out.validated,
                "{app} under {scheme} diverged from reference"
            );
            assert!(san.clean(), "{app} under {scheme}:\n{}", san.render());
            assert!(
                !san.trace.is_empty(),
                "{app} under {scheme} recorded no trace"
            );
            let plain = run_app_full(app, input, &cfg, tiny_machine(), scratchpad, cmh);
            assert_eq!(
                out.report.to_kv(),
                plain.report.to_kv(),
                "{app} under {scheme}: sanitizing changed the run"
            );
        }
    }
}

#[test]
fn sanitized_matrix_every_app_every_scheme_is_silent() {
    sanitize_every_app_every_scheme(None, false);
}

#[test]
fn sanitized_matrix_with_a_halved_fetcher_scratchpad_is_silent() {
    // Fig. 21's override rebuilds the fetchers after the sanitizer is on,
    // so the rebuilt engines must log their queue operations too.
    sanitize_every_app_every_scheme(Some(256), false);
}

#[test]
fn sanitized_matrix_on_the_compressed_memory_hierarchy_is_silent() {
    sanitize_every_app_every_scheme(None, true);
}

/// One clean sanitized run of PageRank under UB+SpZip: cores hand updates
/// to the compressor, whose bin writes are ordered against the
/// accumulation phase's reads only by engine-drain and phase-barrier
/// edges.
fn clean_ub_run() -> (CTrace, RunContext) {
    let g = Arc::new(community(&CommunityParams::web_crawl(512, 6), 23));
    let (_, san) = run_app_sanitized(
        AppName::Pr,
        &g,
        &Scheme::UbSpzip.config(),
        tiny_machine(),
        None,
        false,
    );
    assert!(san.clean(), "baseline must be clean:\n{}", san.render());
    (san.trace, san.context)
}

/// Re-encodes `trace` through the compressed trace layer without the
/// events `drop` selects, and analyzes the result.
fn tampered(
    trace: &CTrace,
    ctx: &RunContext,
    drop: impl Fn(&TraceEvent) -> bool,
) -> Vec<Violation> {
    let mut events = trace.decode_all().expect("trace decodes");
    let before = events.len();
    events.retain(|e| !drop(e));
    assert!(events.len() < before, "tampering must remove something");
    analyze(&CTrace::from_events(trace.cores, &events), ctx)
}

#[test]
fn removing_sync_edges_from_a_real_trace_is_detected_as_a_race() {
    // Strip the drain and barrier edges: the same memory accesses must
    // now race.
    let (trace, ctx) = clean_ub_run();
    let violations = tampered(&trace, &ctx, |e| {
        matches!(e, TraceEvent::Drain { .. } | TraceEvent::Barrier { .. })
    });
    let race = violations
        .iter()
        .find(|v| matches!(v.code, Code::WriteWriteRace | Code::ReadWriteRace))
        .unwrap_or_else(|| panic!("tampered trace must race:\n{}", render(&violations)));
    // The diagnostic carries actor, cycle, and address context.
    assert!(race.site.contains("at cycle"), "{}", race.site);
    assert!(race.site.contains("addr"), "{}", race.site);
    let rendered = render(&violations);
    assert!(rendered.contains("error[S00"), "{rendered}");
    assert!(rendered.contains("= help:"), "{rendered}");
}

#[test]
fn removing_pops_from_a_real_trace_leaks_queue_slots() {
    let (trace, ctx) = clean_ub_run();
    let violations = tampered(&trace, &ctx, |e| matches!(e, TraceEvent::Pop { .. }));
    assert!(
        violations.iter().any(|x| x.code == Code::QueueSlotLeak),
        "unpopped queues must leak:\n{}",
        render(&violations)
    );
}
