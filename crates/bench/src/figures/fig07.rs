//! Figs. 7 and 8: performance and memory-traffic breakdown of BFS on the
//! uk-2005 analog for all six schemes, without preprocessing (Fig. 7)
//! and with DFS preprocessing (Fig. 8).
//!
//! Expected shape (paper), Fig. 7: Push+SpZip ~1.7x over Push with
//! barely-reduced traffic (scatter updates dominate and neighbor ids are
//! scattered); UB cuts traffic ~2.7x and runs ~2.5x; UB+SpZip compresses
//! the now-sequential updates (~6x over Push); PHI+SpZip is fastest
//! (~7.4x).
//!
//! Fig. 8: preprocessing slashes Push's destination-vertex traffic; UB
//! becomes *worse* than Push (it streams all updates to memory
//! regardless of locality, ~3.1x Push's traffic); the adjacency matrix
//! now dominates and compresses ~2.3x, so every +SpZip variant gains
//! ~1.5x; PHI+SpZip stays fastest (~6.3x over Push).

use super::SweepOpts;
use crate::driver::Memo;
use crate::render_scheme_table;
use spzip_apps::{AppName, RunOutcome, RunSpec, Scheme};

/// BFS on `ukl`, randomized ids or DFS-preprocessed, all six schemes.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    Scheme::all()
        .into_iter()
        .map(|s| RunSpec::new(AppName::Bfs, "ukl", s.config(), opts.prep(), opts.scale))
        .collect()
}

/// The Fig. 7 (or, preprocessed, Fig. 8) scheme table.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let specs = cells(opts);
    let outcomes: Vec<(Scheme, &RunOutcome)> = Scheme::all()
        .into_iter()
        .zip(&specs)
        .map(|(s, spec)| (s, memo.get(spec)))
        .collect();
    let title = if opts.preprocess {
        "Fig. 8: BFS on ukl (DFS preprocessing), normalized to Push"
    } else {
        "Fig. 7: BFS on ukl (no preprocessing), normalized to Push"
    };
    render_scheme_table(title, &outcomes)
}
