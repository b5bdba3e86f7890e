//! Fig. 18: memory-traffic breakdown of the uk-2005 analog under the five
//! preprocessing algorithms, for PHI (H) and PHI+SpZip (Z), averaged over
//! the six graph applications.
//!
//! Expected shape (paper): without compression the techniques reach
//! similar traffic; with compression, topological orders (BFS/DFS) and
//! GOrder pull ahead of degree sorting because they improve the adjacency
//! matrix's value locality (2.3-2.4x ratio vs 1.4x for DegreeSort).

use super::SweepOpts;
use crate::driver::Memo;
use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_graph::reorder::Preprocessing;
use spzip_sim::RunReport;
use std::fmt::Write as _;

/// PHI and PHI+SpZip on `ukl` under every preprocessing, per graph app.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::graph_apps() {
        // The baseline (PHI, no preprocessing) is also the first sweep
        // point; the driver deduplicates.
        out.push(RunSpec::new(
            app,
            "ukl",
            Scheme::Phi.config(),
            Preprocessing::None,
            opts.scale,
        ));
        for prep in Preprocessing::all() {
            out.push(RunSpec::new(
                app,
                "ukl",
                Scheme::Phi.config(),
                prep,
                opts.scale,
            ));
            out.push(RunSpec::new(
                app,
                "ukl",
                Scheme::PhiSpzip.config(),
                prep,
                opts.scale,
            ));
        }
    }
    out
}

/// The Fig. 18 per-preprocessing traffic table.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. 18: PHI (H) / PHI+SpZip (Z) traffic on ukl by preprocessing ==="
    )
    .unwrap();
    writeln!(
        out,
        "(normalized to PHI without preprocessing, averaged over graph apps)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>12} {:>14}",
        "prep", "H traffic", "Z traffic", "Z adj ratio", "Z/H reduction"
    )
    .unwrap();
    // Baseline: PHI, no preprocessing, per app.
    let base: Vec<&RunReport> = AppName::graph_apps()
        .into_iter()
        .map(|app| {
            let spec = RunSpec::new(
                app,
                "ukl",
                Scheme::Phi.config(),
                Preprocessing::None,
                opts.scale,
            );
            &memo.get(&spec).report
        })
        .collect();
    for prep in Preprocessing::all() {
        let mut h_sum = 0.0;
        let mut z_sum = 0.0;
        let mut ratio_sum = 0.0;
        let mut h_break = [0.0f64; 6];
        let mut z_break = [0.0f64; 6];
        for (app, base) in AppName::graph_apps().into_iter().zip(&base) {
            let h = memo.get(&RunSpec::new(
                app,
                "ukl",
                Scheme::Phi.config(),
                prep,
                opts.scale,
            ));
            let z = memo.get(&RunSpec::new(
                app,
                "ukl",
                Scheme::PhiSpzip.config(),
                prep,
                opts.scale,
            ));
            assert!(h.validated && z.validated, "{app}/{prep}");
            h_sum += h.report.traffic_vs(base);
            z_sum += z.report.traffic_vs(base);
            ratio_sum += z.adjacency_ratio.unwrap_or(1.0);
            let base_bytes = base.traffic.total_bytes();
            for (sum, share) in h_break.iter_mut().zip(h.report.breakdown(base_bytes)) {
                *sum += share;
            }
            for (sum, share) in z_break.iter_mut().zip(z.report.breakdown(base_bytes)) {
                *sum += share;
            }
        }
        let n = AppName::graph_apps().len() as f64;
        writeln!(
            out,
            "{:<12} {:>9.3}x {:>9.3}x {:>11.2}x {:>13.2}x",
            prep.to_string(),
            h_sum / n,
            z_sum / n,
            ratio_sum / n,
            h_sum / z_sum.max(1e-9),
        )
        .unwrap();
        writeln!(
            out,
            "             H breakdown: Adj {:.3} Src {:.3} Dst {:.3} Upd {:.3}",
            h_break[0] / n,
            h_break[1] / n,
            h_break[2] / n,
            h_break[3] / n
        )
        .unwrap();
        writeln!(
            out,
            "             Z breakdown: Adj {:.3} Src {:.3} Dst {:.3} Upd {:.3}",
            z_break[0] / n,
            z_break[1] / n,
            z_break[2] / n,
            z_break[3] / n
        )
        .unwrap();
    }
    out
}
