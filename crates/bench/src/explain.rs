//! `dcl-lint --explain CODE`: a long-form entry — summary, why it
//! matters, how to fix — for every stable diagnostic code the toolchain
//! can emit.
//!
//! One lookup spans all eight families: `E`/`W` (the structural linter),
//! `B` (the shape-and-bounds verifier), `P` (the performance analyzer),
//! `A` (codec-selection advisories), `D` (the liveness model checker),
//! `V` (the translation validator) — all from
//! [`spzip_core::lint::Code`] — plus `S` (the simulator
//! sanitizer, [`spzip_sim::sanitize::Code`]). Each registry holds its
//! codes' texts, so `--explain` can never drift from the rendered
//! diagnostics; this module only formats them.

use spzip_core::lint;
use spzip_sim::sanitize;

/// Renders the registry entry for `code` (case-insensitive), or `None`
/// for a code no tool emits.
pub fn explain(code: &str) -> Option<String> {
    let code = code.to_ascii_uppercase();
    let (id, kind, summary, why, fix) = match lint::Code::all().iter().find(|c| c.as_str() == code)
    {
        Some(c) => (
            c.as_str(),
            c.severity().to_string(),
            c.summary(),
            c.why(),
            c.fix(),
        ),
        None => {
            let c = sanitize::Code::all()
                .into_iter()
                .find(|c| c.as_str() == code)?;
            (
                c.as_str(),
                "sanitizer".to_string(),
                c.summary(),
                c.why(),
                c.hint(),
            )
        }
    };
    Some(format!(
        "{id} ({kind}): {summary}\n  why: {why}\n  fix: {fix}\n"
    ))
}

/// Runs `--explain CODE`: prints the entry, or an error listing the
/// known families. Returns the process exit code.
pub fn run(code: &str) -> i32 {
    match explain(code) {
        Some(text) => {
            print!("{text}");
            0
        }
        None => {
            eprintln!(
                "unknown diagnostic code `{code}` (known families: E/W lint, B shape, \
                 P perf, A suggest, D liveness, V equiv, S sanitizer)"
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lint_registry_code_has_a_nonempty_entry() {
        for c in lint::Code::all() {
            let text = explain(c.as_str()).unwrap_or_else(|| panic!("{c} missing"));
            assert!(text.contains(c.as_str()), "{text}");
            assert!(text.contains(c.summary()), "{text}");
            assert!(text.contains("why: ") && text.contains("fix: "), "{text}");
            assert!(
                !c.why().trim().is_empty() && !c.fix().trim().is_empty(),
                "{c}"
            );
        }
    }

    #[test]
    fn every_sanitizer_code_has_a_nonempty_entry() {
        for c in sanitize::Code::all() {
            let text = explain(c.as_str()).unwrap_or_else(|| panic!("{} missing", c.as_str()));
            assert!(text.contains("(sanitizer)"), "{text}");
            assert!(text.contains("why: ") && text.contains("fix: "), "{text}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_rejects_unknown() {
        assert!(explain("d001").is_some());
        assert!(explain("s010").is_some());
        assert!(explain("Z999").is_none());
        assert!(explain("").is_none());
    }

    #[test]
    fn d_code_entries_describe_the_global_nature() {
        let d1 = explain("D001").unwrap();
        assert!(d1.contains("error"), "{d1}");
        assert!(d1.to_lowercase().contains("cycle"), "{d1}");
        let d5 = explain("D005").unwrap();
        assert!(d5.to_lowercase().contains("flush"), "{d5}");
    }
}
