//! Regenerates every table and figure in one process.
//!
//! Unions the cells of all requested outputs, deduplicates them, runs the
//! unique ones once on the parallel cached driver, then renders each
//! output to `results/<name>.txt`. A second invocation is all cache hits
//! and re-renders without simulating anything.
//!
//! This is the one way to render a figure: `--only fig15cd,fig07`
//! restricts the outputs to the named ones (see
//! `spzip_bench::figures::all_outputs`), and each output renders its own
//! randomized or DFS-preprocessed variant. `--jobs N`, `--fresh`,
//! `--scale`, `--apps`, `--inputs`, `--cache-dir` and `--out-dir` are
//! the shared flags of `spzip_bench::cli`.
//!
//! `--sanitize` runs every cell under the SimSanitizer, bypassing the
//! results cache, and exits non-zero if any run reports a violation.

use spzip_bench::driver::Driver;
use spzip_bench::{cli, figures};
use std::fs;

fn main() {
    let all = figures::all_outputs();
    let names: Vec<&str> = all.iter().map(|o| o.name).collect();
    let args = cli::parse(false, &names);
    let outputs: Vec<_> = all
        .into_iter()
        .filter(|o| {
            args.only
                .as_ref()
                .is_none_or(|f| f.iter().any(|x| x.eq_ignore_ascii_case(o.name)))
        })
        .collect();

    let mut cells = Vec::new();
    for o in &outputs {
        cells.extend((o.cells)(&args.sweep_with(o.preprocess)));
    }
    let driver = Driver::new(args.driver_options());
    let memo = driver.execute(&cells);

    fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out_dir.display()));
    for o in &outputs {
        let text = (o.render)(&args.sweep_with(o.preprocess), &memo);
        let path = args.out_dir.join(format!("{}.txt", o.name));
        fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    let st = driver.stats();
    println!(
        "{} outputs; {} cells requested, {} unique, {} simulated, {} from cache",
        outputs.len(),
        st.requested,
        st.unique,
        st.simulated,
        st.cache_hits
    );
    if args.sanitize {
        let findings = driver.sanitize_findings();
        if findings.is_empty() {
            println!("sanitizer: {} run(s), all clean", st.sanitized);
        } else {
            let total: usize = findings.iter().map(|f| f.violations).sum();
            for f in &findings {
                eprintln!("sanitizer: {} ({} violation(s))", f.label, f.violations);
                eprint!("{}", f.rendered);
            }
            eprintln!(
                "sanitizer: {total} violation(s) across {} of {} run(s)",
                findings.len(),
                st.sanitized
            );
            std::process::exit(1);
        }
    }
}
