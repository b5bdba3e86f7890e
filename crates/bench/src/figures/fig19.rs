//! Fig. 19: compression factor analysis over PHI — enabling compression of
//! the adjacency matrix, then update bins, then vertex data, one at a time.
//!
//! Expected shape (paper): every structure helps; without preprocessing
//! the bins matter most (they dominate traffic); with preprocessing the
//! adjacency matrix matters most (preprocessing makes it compressible).

use super::SweepOpts;
use crate::driver::Memo;
use spzip_apps::scheme::{SchemeConfig, Strategy};
use spzip_apps::{AppName, RunSpec};
use spzip_compress::stats::geometric_mean;
use std::fmt::Write as _;

/// The four bars: PHI, +Adjacency, +Bin, +Vertex (= PHI+SpZip).
fn variants() -> [(&'static str, SchemeConfig); 4] {
    [
        ("PHI", SchemeConfig::software(Strategy::Phi)),
        ("+AdjacencyMatrix", {
            let mut c = SchemeConfig::decoupled_only(Strategy::Phi);
            c.compress_adjacency = true;
            c
        }),
        ("+Bin", {
            let mut c = SchemeConfig::decoupled_only(Strategy::Phi);
            c.compress_adjacency = true;
            c.compress_updates = true;
            c.sort_chunks = true;
            c
        }),
        (
            "+Vertex (=PHI+SpZip)",
            SchemeConfig::with_spzip(Strategy::Phi),
        ),
    ]
}

/// Each variant on `ukl`, per graph app.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::graph_apps() {
        for (_, cfg) in variants() {
            out.push(RunSpec::new(app, "ukl", cfg, opts.prep(), opts.scale));
        }
    }
    out
}

/// The Fig. 19 factor-analysis table.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let prep = opts.prep();
    let variants = variants();
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. 19{}: speedup over PHI as structures are compressed (prep = {prep}) ===",
        if opts.preprocess { "b" } else { "a" }
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>8} {:>18} {:>8} {:>22}",
        "app", "PHI", "+AdjacencyMatrix", "+Bin", "+Vertex (=PHI+SpZip)"
    )
    .unwrap();
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for app in AppName::graph_apps() {
        let mut reports = Vec::new();
        for (name, cfg) in &variants {
            let o = memo.get(&RunSpec::new(app, "ukl", *cfg, prep, opts.scale));
            assert!(o.validated, "{app}/{name}");
            reports.push(&o.report);
        }
        write!(out, "{:<8}", app.to_string()).unwrap();
        for (i, r) in reports.iter().enumerate() {
            let sp = r.speedup_over(reports[0]);
            per_variant[i].push(sp);
            write!(out, " {:>7.2}x", sp).unwrap();
            if i == 1 {
                write!(out, "{:>10}", "").unwrap();
            }
            if i == 2 {
                write!(out, "{:>14}", "").unwrap();
            }
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "\nGmean:").unwrap();
    for (i, (name, _)) in variants.iter().enumerate() {
        writeln!(
            out,
            "  {:<22} {:>6.2}x",
            name,
            geometric_mean(&per_variant[i])
        )
        .unwrap();
    }
    out
}
