//! `dcl-lint`: static analysis for DCL pipelines.
//!
//! ```text
//! dcl-lint examples/dcl/*.dcl        # lint text files
//! dcl-lint --all-builtin             # lint every built-in app pipeline
//! dcl-lint --dot fig2.dcl            # also print Graphviz dot
//! dcl-lint --deny-warnings fig2.dcl  # warnings fail the run too
//! ```
//!
//! Exits 0 when every linted pipeline passes (warnings allowed unless
//! `--deny-warnings`), 1 when any diagnostic fails the run, and 2 when the
//! tool could not do its job — a usage error, an unreadable file or
//! nothing to lint.

fn main() {
    let args = spzip_bench::cli::parse(true, &[]);
    std::process::exit(spzip_bench::dcl_lint::run(&args));
}
