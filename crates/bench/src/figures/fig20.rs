//! Fig. 20: decoupled fetching vs compression, over PHI.
//!
//! Expected shape (paper): decoupling alone buys a modest ~9-14% (the
//! system is already bandwidth-bound); compression provides the rest of
//! PHI+SpZip's 1.5-1.8x gain.

use super::SweepOpts;
use crate::driver::Memo;
use spzip_apps::scheme::{SchemeConfig, Strategy};
use spzip_apps::{AppName, RunSpec};
use spzip_compress::stats::geometric_mean;
use std::fmt::Write as _;

fn variants() -> [(&'static str, SchemeConfig); 3] {
    [
        ("PHI", SchemeConfig::software(Strategy::Phi)),
        (
            "+Decoupled Fetching",
            SchemeConfig::decoupled_only(Strategy::Phi),
        ),
        (
            "+Compression (=PHI+SpZip)",
            SchemeConfig::with_spzip(Strategy::Phi),
        ),
    ]
}

// Two contrasting inputs keep the sweep tractable on one host:
// a web crawl (community structure) and the Twitter analog (none).
const INPUTS: [&str; 2] = ["ukl", "twi"];

/// Each variant on both inputs, per graph app.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::graph_apps() {
        for input in INPUTS {
            for (_, cfg) in variants() {
                out.push(RunSpec::new(app, input, cfg, opts.prep(), opts.scale));
            }
        }
    }
    out
}

/// The Fig. 20 ablation summary.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let prep = opts.prep();
    let variants = variants();
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for app in AppName::graph_apps() {
        for input in INPUTS {
            let mut reports = Vec::new();
            for (name, cfg) in &variants {
                let o = memo.get(&RunSpec::new(app, input, *cfg, prep, opts.scale));
                assert!(o.validated, "{app}/{input}/{name}");
                reports.push(&o.report);
            }
            for (i, r) in reports.iter().enumerate() {
                per_variant[i].push(r.speedup_over(reports[0]));
            }
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. 20{}: decoupling vs compression over PHI (prep = {prep}) ===",
        if opts.preprocess { "b" } else { "a" }
    )
    .unwrap();
    for (i, (name, _)) in variants.iter().enumerate() {
        writeln!(
            out,
            "  {:<26} {:>6.2}x",
            name,
            geometric_mean(&per_variant[i])
        )
        .unwrap();
    }
    out
}
