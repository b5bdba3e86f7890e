//! Figs. 16 and 17: per-input memory traffic and speedups for the six
//! graph applications across all five graph inputs.
//!
//! The randomized-id sweep is Fig. 16; the DFS-preprocessed one, Fig. 17.
//! Expected shape: trends of Fig. 15 hold per input; PHI+SpZip fastest
//! everywhere; on `twi` (little community structure) preprocessing and
//! compression help least.

use super::{SweepOpts, GRAPH_INPUTS};
use crate::driver::Memo;
use spzip_apps::{AppName, RunSpec, Scheme};
use std::fmt::Write as _;

/// The (graph app x graph input x scheme) sweep — a subset of Fig. 15's.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::graph_apps() {
        for input in GRAPH_INPUTS {
            for scheme in Scheme::all() {
                out.push(RunSpec::new(
                    app,
                    input,
                    scheme.config(),
                    opts.prep(),
                    opts.scale,
                ));
            }
        }
    }
    out
}

/// The per-input rows of Fig. 16 (or Fig. 17 when preprocessed).
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let prep = opts.prep();
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. {}: per-input speedup and traffic vs Push (prep = {prep}) ===",
        if opts.preprocess { 17 } else { 16 }
    )
    .unwrap();
    for app in AppName::graph_apps() {
        writeln!(out, "\n{app}:").unwrap();
        writeln!(
            out,
            "  {:<6} {}",
            "input",
            Scheme::all()
                .map(|s| format!("{:>7}/{:<6}", format!("{}x", s.code()), "traf"))
                .join(" ")
        )
        .unwrap();
        for input in GRAPH_INPUTS {
            let mut row = format!("  {input:<6} ");
            let mut base = None;
            for scheme in Scheme::all() {
                let spec = RunSpec::new(app, input, scheme.config(), prep, opts.scale);
                let o = memo.get(&spec);
                assert!(o.validated, "{app}/{input}/{scheme}");
                let base = *base.get_or_insert(&o.report);
                row.push_str(&format!(
                    "{:>6.2}x/{:<6.2} ",
                    o.report.speedup_over(base),
                    o.report.traffic_vs(base),
                ));
            }
            writeln!(out, "{row}").unwrap();
        }
    }
    out
}
