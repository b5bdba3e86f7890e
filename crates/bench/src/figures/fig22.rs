//! Fig. 22: the compressed-memory-hierarchy baseline — Push and UB on a
//! system with a VSC (BDI) compressed LLC and LCP-compressed main memory.
//!
//! Expected shape (paper): CMH yields roughly no speedup on Push and ~11%
//! on UB without preprocessing, and only 3%/28% with preprocessing —
//! far below SpZip's gains — because line-granularity, semantics-unaware
//! compression gets poor ratios on irregular data and pays latency on the
//! critical path.

use super::SweepOpts;
use crate::driver::Memo;
use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_compress::stats::geometric_mean;
use std::fmt::Write as _;

fn spec(app: AppName, scheme: Scheme, cmh: bool, opts: &SweepOpts) -> RunSpec {
    let input = if app.is_matrix() { "nlp" } else { "ukl" };
    let mut s = RunSpec::new(app, input, scheme.config(), opts.prep(), opts.scale);
    if cmh {
        s.machine = s.machine.with_cmh();
    }
    s
}

/// Push and UB, with and without CMH, per app.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::all() {
        for scheme in [Scheme::Push, Scheme::Ub] {
            for cmh in [false, true] {
                out.push(spec(app, scheme, cmh, opts));
            }
        }
    }
    out
}

/// The Fig. 22 CMH comparison table.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let prep = opts.prep();
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. 22{}: compressed memory hierarchy vs Push (prep = {prep}) ===",
        if opts.preprocess { "b" } else { "a" }
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:>9} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "app", "Push+CMH", "Push traf", "UB", "UB traf", "UB+CMH", "CMH traf"
    )
    .unwrap();
    let mut sp_push_cmh = Vec::new();
    let mut sp_ub_cmh = Vec::new();
    for app in AppName::all() {
        let push = memo.get(&spec(app, Scheme::Push, false, opts));
        let push_cmh = memo.get(&spec(app, Scheme::Push, true, opts));
        let ub = memo.get(&spec(app, Scheme::Ub, false, opts));
        let ub_cmh = memo.get(&spec(app, Scheme::Ub, true, opts));
        assert!(push.validated && push_cmh.validated && ub.validated && ub_cmh.validated);
        let base = &push.report;
        writeln!(
            out,
            "{:<6} {:>8.2}x {:>9.2}x {:>7.2}x {:>8.2}x {:>8.2}x {:>8.2}x",
            app.to_string(),
            push_cmh.report.speedup_over(base),
            push_cmh.report.traffic_vs(base),
            ub.report.speedup_over(base),
            ub.report.traffic_vs(base),
            ub_cmh.report.speedup_over(base),
            ub_cmh.report.traffic_vs(base),
        )
        .unwrap();
        sp_push_cmh.push(push_cmh.report.speedup_over(base));
        sp_ub_cmh.push(ub_cmh.report.speedup_over(&ub.report));
    }
    writeln!(
        out,
        "\nGmean: Push+CMH over Push {:.2}x; UB+CMH over UB {:.2}x",
        geometric_mean(&sp_push_cmh),
        geometric_mean(&sp_ub_cmh)
    )
    .unwrap();
    out
}
