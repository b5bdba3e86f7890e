//! Fig. 15: per-application speedups and traffic breakdowns for all six
//! schemes, averaged across inputs — the paper's main results.
//!
//! The preprocessed sweep renders Fig. 15c/d; the randomized one,
//! Fig. 15a/b. `--apps PR,BFS` limits the sweep; `--inputs arb,ukl`
//! likewise.
//!
//! Expected shape (paper, no preprocessing): PHI+SpZip fastest everywhere,
//! gmean ~6x over Push; SpZip accelerates Push/UB/PHI by ~1.6x/3.0x/1.5x;
//! traffic reductions of ~1.9x (UB+SpZip) to ~3.3x (PHI+SpZip) over Push.
//! With DFS preprocessing: UB falls behind Push (~41% slower, ~3x traffic);
//! Push+SpZip cuts adjacency traffic ~2.3x.

use super::{SweepOpts, GRAPH_INPUTS};
use crate::driver::Memo;
use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_compress::stats::{arithmetic_mean, geometric_mean};
use std::fmt::Write as _;

fn inputs_for(app: AppName) -> Vec<&'static str> {
    if app.is_matrix() {
        vec!["nlp"]
    } else {
        GRAPH_INPUTS.to_vec()
    }
}

/// The full (app x input x scheme) sweep under the selected filters.
pub fn cells(opts: &SweepOpts) -> Vec<RunSpec> {
    let mut out = Vec::new();
    for app in AppName::all() {
        if !opts.app_selected(app) {
            continue;
        }
        for input in inputs_for(app) {
            if !opts.input_selected(input) {
                continue;
            }
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

/// The Fig. 15 per-app tables, per-input rows, and gmean summary.
pub fn render(opts: &SweepOpts, memo: &Memo) -> String {
    let prep = opts.prep();
    let mut out = String::new();
    writeln!(
        out,
        "=== Fig. 15{}: speedups over Push and traffic breakdown (prep = {prep}) ===",
        if opts.preprocess { "c/d" } else { "a/b" }
    )
    .unwrap();
    let mut gmeans: Vec<(Scheme, Vec<f64>)> =
        Scheme::all().iter().map(|&s| (s, Vec::new())).collect();
    let mut traffic_means: Vec<(Scheme, Vec<f64>)> =
        Scheme::all().iter().map(|&s| (s, Vec::new())).collect();

    for app in AppName::all() {
        if !opts.app_selected(app) {
            continue;
        }
        // Per scheme, averaged across inputs; per-input rows double as the
        // Fig. 16/17 data (same cells, pre-averaging).
        let mut speedups = vec![Vec::new(); 6];
        let mut traffics = vec![Vec::new(); 6];
        let mut breakdowns = vec![[0.0f64; 6]; 6];
        let mut per_input_rows: Vec<String> = Vec::new();
        for input in inputs_for(app) {
            if !opts.input_selected(input) {
                continue;
            }
            let mut base = None;
            let mut row = format!("    {input:<5}");
            for (si, scheme) in Scheme::all().into_iter().enumerate() {
                let spec = RunSpec::new(app, input, scheme.config(), prep, opts.scale);
                let o = memo.get(&spec);
                assert!(o.validated, "{app}/{input}/{scheme} failed validation");
                let base = *base.get_or_insert(&o.report);
                let sp = o.report.speedup_over(base);
                let tr = o.report.traffic_vs(base);
                speedups[si].push(sp);
                traffics[si].push(tr);
                let b = o.report.breakdown(base.traffic.total_bytes());
                for k in 0..6 {
                    breakdowns[si][k] += b[k];
                }
                row.push_str(&format!(" {}:{:>5.2}x/{:<5.2}", scheme.code(), sp, tr));
            }
            per_input_rows.push(row);
        }
        if speedups[0].is_empty() {
            continue;
        }
        writeln!(out, "\n{app}:").unwrap();
        writeln!(
            out,
            "  {:<12} {:>8} {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "scheme", "speedup", "traffic", "Adj", "Src", "Dst", "Upd", "Fro", "Oth"
        )
        .unwrap();
        let n_inputs = speedups[0].len() as f64;
        for (si, scheme) in Scheme::all().into_iter().enumerate() {
            let sp = geometric_mean(&speedups[si]);
            let tr = arithmetic_mean(&traffics[si]);
            writeln!(
                out,
                "  {:<12} {:>7.2}x {:>7.2}x | {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3}",
                scheme.to_string(),
                sp,
                tr,
                breakdowns[si][0] / n_inputs,
                breakdowns[si][1] / n_inputs,
                breakdowns[si][2] / n_inputs,
                breakdowns[si][3] / n_inputs,
                breakdowns[si][4] / n_inputs,
                breakdowns[si][5] / n_inputs,
            )
            .unwrap();
            gmeans[si].1.push(sp);
            traffic_means[si].1.push(tr);
        }
        writeln!(
            out,
            "  per input (Fig. 16/17 series, speedup/traffic vs Push):"
        )
        .unwrap();
        for row in per_input_rows {
            writeln!(out, "{row}").unwrap();
        }
    }

    writeln!(
        out,
        "\nGmean across applications (the paper's last bar group):"
    )
    .unwrap();
    for (s, v) in &gmeans {
        if !v.is_empty() {
            writeln!(
                out,
                "  {:<12} speedup {:>6.2}x",
                s.to_string(),
                geometric_mean(v)
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "Mean traffic across applications (normalized to Push):"
    )
    .unwrap();
    for (s, v) in &traffic_means {
        if !v.is_empty() {
            writeln!(
                out,
                "  {:<12} traffic {:>6.2}x",
                s.to_string(),
                arithmetic_mean(v)
            )
            .unwrap();
        }
    }
    out
}
