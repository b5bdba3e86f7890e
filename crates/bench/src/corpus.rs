//! The seeded-bug corpus gates: one harness for every static pass that
//! is proven against the dynamic engines.
//!
//! Each corpus deliberately seeds small pipelines with the bugs its pass
//! exists to catch, plus honest controls of the same shapes, and asserts
//! every entry **twice**: statically (the pass reports the expected code;
//! a control reports nothing) and dynamically (the functional engine or
//! the timing machine observably misbehaves; a control runs cleanly).
//! Either half failing fails the row, so a pass can neither go soft (a
//! seed escapes) nor strict (a control is rejected) unnoticed.
//!
//! | corpus | pass | seeds | dynamic confirmation |
//! |---|---|---|---|
//! | [`shape`](crate::shape_corpus) | shape verifier (B-codes) | miswired pipelines | panic or wrong values/framing |
//! | [`liveness`](crate::liveness_corpus) | liveness checker (D-codes) | cross-queue deadlocks | counterexample replays to the watchdog |
//! | [`equiv`](crate::equiv_corpus) | translation validator (V-codes) | semantics-breaking rewrites | the two pipelines' outputs diverge |
//!
//! `dcl-lint --corpus shape|liveness|equiv|all` runs the gate. Each
//! corpus also has a *weakened checker*, its rows under `weakened =
//! true`: a gate that still passed with it would prove nothing, so the
//! tests below require every weakened arm to fail.

use crate::cli::{json_envelope, OutputFormat, ToolCounts};
use spzip_apps::layout::Workload;
use spzip_apps::{Scheme, SchemeConfig};
use spzip_core::lint::Code;
use spzip_core::QueueItem;
use spzip_graph::gen::{community, CommunityParams};
use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Once};

/// One corpus verdict: what the static pass said and what the engines did.
#[derive(Debug)]
pub struct GateRow {
    /// Entry name (stable, used in CI output).
    pub name: String,
    /// The code a seeded entry must trigger; `None` for controls, which
    /// must come out clean.
    pub expected: Option<Code>,
    /// Codes the static pass reported.
    pub static_codes: Vec<Code>,
    /// Seeded entries: the engines observably misbehaved. Controls: the
    /// honest drive completed with the expected observations.
    pub dynamic_confirmed: bool,
    /// Liveness rows only: whether the pipeline is clean of the per-queue
    /// capacity lints (E013/E014/E019), i.e. the deadlock is invisible to
    /// them. Left out of the JSON when `None`.
    pub queue_lint_clean: Option<bool>,
    /// Short description of the dynamic observation.
    pub detail: String,
}

impl GateRow {
    /// Whether this row upholds the gate's contract.
    pub fn passes(&self) -> bool {
        match self.expected {
            Some(code) => self.static_codes.contains(&code) && self.dynamic_confirmed,
            None => self.static_codes.is_empty() && self.dynamic_confirmed,
        }
    }
}

/// A corpus's rows: `false` checks under the honest pass, `true` under
/// the corpus's weakened checker.
pub type Rows = fn(bool) -> Vec<GateRow>;

/// Every corpus by name, in `--corpus all` order.
pub const CORPORA: [(&str, Rows); 3] = [
    ("shape", crate::shape_corpus::rows),
    ("liveness", crate::liveness_corpus::rows),
    ("equiv", crate::equiv_corpus::rows),
];

thread_local! {
    /// Whether this thread is inside [`run`], whose panics stay quiet.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs one corpus. Expected panics are part of the contract, so panics
/// on this thread stay out of the gate's output meanwhile. The process
/// hook is wrapped once, never swapped per run, so concurrent runs cannot
/// leave a silent hook behind: a panic on any other thread, or after the
/// run, still reaches the hook installed before the first run.
pub fn run(rows: Rows, weakened: bool) -> Vec<GateRow> {
    static WRAP_HOOK: Once = Once::new();
    WRAP_HOOK.call_once(|| {
        let outer = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                outer(info);
            }
        }));
    });
    QUIET.set(true);
    let rows = rows(weakened);
    QUIET.set(false);
    rows
}

/// Renders one corpus as text, one verdict per line, then a summary line.
pub fn render_text(corpus: &str, rows: &[GateRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let codes: Vec<String> = r.static_codes.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            out,
            "{:5} {:<28} expect {:<6} static [{}] dynamic {} — {}",
            if r.passes() { "ok" } else { "FAIL" },
            r.name,
            r.expected.map_or("clean".to_string(), |c| c.to_string()),
            codes.join(","),
            if r.dynamic_confirmed {
                "confirmed"
            } else {
                "MISSED"
            },
            r.detail
        );
    }
    let failed = rows.iter().filter(|r| !r.passes()).count();
    let _ = writeln!(
        out,
        "{corpus} corpus: {} entr{} checked, {} failed",
        rows.len(),
        if rows.len() == 1 { "y" } else { "ies" },
        failed
    );
    out
}

/// Renders rows in the shared tool JSON envelope.
pub fn render_json(rows: &[GateRow]) -> String {
    let counts = ToolCounts {
        checked: rows.len(),
        errors: rows.iter().filter(|r| !r.passes()).count(),
        warnings: 0,
        io_errors: 0,
    };
    let pipelines: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let codes: Vec<String> = r.static_codes.iter().map(|c| format!("\"{c}\"")).collect();
            let queue_lint_clean = r
                .queue_lint_clean
                .map_or(String::new(), |c| format!(",\"queue_lint_clean\":{c}"));
            let body = format!(
                "\"expected\":{},\"static_codes\":[{}],\"dynamic_confirmed\":{}{queue_lint_clean},\"pass\":{}",
                r.expected
                    .map_or("null".to_string(), |c| format!("\"{c}\"")),
                codes.join(","),
                r.dynamic_confirmed,
                r.passes()
            );
            (r.name.clone(), body)
        })
        .collect();
    json_envelope(&counts, &pipelines, &[])
}

/// `dcl-lint --corpus NAME`: runs the named corpus (or `all` of them),
/// prints the report, and returns the exit code — 0 iff every seed is
/// caught twice and every control is clean twice, 1 otherwise. Returns
/// `None` when `NAME` names no corpus.
pub fn run_gate(name: &str, format: OutputFormat) -> Option<i32> {
    let selected: Vec<(&str, Rows)> = CORPORA
        .into_iter()
        .filter(|(n, _)| name == "all" || name == *n)
        .collect();
    if selected.is_empty() {
        return None;
    }
    let mut all = Vec::new();
    for (corpus, rows) in selected {
        let rows = run(rows, false);
        // Gate rows carry no per-diagnostic records; SARIF falls back to text.
        if format != OutputFormat::Json {
            print!("{}", render_text(corpus, &rows));
        }
        all.extend(rows);
    }
    if format == OutputFormat::Json {
        print!("{}", render_json(&all));
    }
    Some(i32::from(all.iter().any(|r| !r.passes())))
}

// ---- fixtures shared by the corpora ------------------------------------

/// The corpus workload: UB+SpZip (bins, compressed adjacency, compressed
/// vertex slices all present), all-active, small enough to drive in
/// milliseconds but large enough that every bounds margin is non-trivial.
pub(crate) fn workload() -> (Workload, SchemeConfig) {
    let cfg = Scheme::UbSpzip.config();
    let g = Arc::new(community(&CommunityParams::web_crawl(1 << 12, 8), 7));
    let w = Workload::build(g, &cfg, 2, 16 * 1024, true);
    (w, cfg)
}

/// Runs `f`, reporting whether it panicked (a memory guard, a MemQueue
/// assert, a corrupt-stream decode). [`run`] keeps such expected panics
/// quiet.
pub(crate) fn panics<F: FnOnce()>(f: F) -> bool {
    std::panic::catch_unwind(AssertUnwindSafe(f)).is_err()
}

/// The non-marker values of a drained queue.
pub(crate) fn values_of(items: &[QueueItem]) -> Vec<u64> {
    items
        .iter()
        .filter(|i| !i.is_marker())
        .map(|i| i.value())
        .collect()
}

/// A distinctive per-index pattern for filling lookup tables.
pub(crate) fn pattern(i: u64) -> u32 {
    (i as u32).wrapping_mul(2654435761) ^ 0xA5A5_0000
}

/// A weakened checker that reports only `code`: the other static codes
/// are discarded, so the seeds that need them escape.
pub(crate) fn keep_only(mut rows: Vec<GateRow>, code: Code) -> Vec<GateRow> {
    for r in &mut rows {
        r.static_codes.retain(|c| *c == code);
    }
    rows
}

/// Test helper: runs the corpus `name` from [`CORPORA`] under the honest
/// pass and asserts every row upholds the gate.
#[cfg(test)]
pub(crate) fn assert_gate_passes(name: &str) {
    for r in run(corpus_rows(name), false) {
        assert!(
            r.passes(),
            "{name}/{}: expected {:?}, static {:?}, dynamic confirmed: {} ({})",
            r.name,
            r.expected,
            r.static_codes,
            r.dynamic_confirmed,
            r.detail
        );
    }
}

/// Test helper: renders the corpus `name` in both formats and checks that
/// `seed` shows in the text and its `code` in the JSON, next to controls.
#[cfg(test)]
pub(crate) fn assert_reports_render(name: &str, seed: &str, code: &str) {
    let rows = run(corpus_rows(name), false);
    let text = render_text(name, &rows);
    assert!(text.contains(seed), "{text}");
    assert!(text.contains(&format!("{name} corpus:")), "{text}");
    let json = render_json(&rows);
    assert!(json.contains(&format!("\"expected\":\"{code}\"")), "{json}");
    assert!(json.contains("\"pass\":true"), "{json}");
    assert!(json.contains("\"expected\":null"), "controls: {json}");
    assert_eq!(
        json.contains("\"queue_lint_clean\""),
        name == "liveness",
        "only liveness rows carry queue_lint_clean: {json}"
    );
}

#[cfg(test)]
fn corpus_rows(name: &str) -> Rows {
    CORPORA
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, rows)| rows)
        .unwrap_or_else(|| panic!("no corpus named {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_weakened_arm_fails_the_gate_and_every_control_stays_clean() {
        for (corpus, rows) in CORPORA {
            let rows = run(rows, true);
            assert!(
                rows.iter().any(|r| !r.passes()),
                "{corpus}: the weakened checker must fail at least one seed"
            );
            // The gate failure is missed seeds, not broken controls.
            for r in rows.iter().filter(|r| r.expected.is_none()) {
                assert!(r.passes(), "{corpus}: control {} broke", r.name);
            }
        }
    }
}
