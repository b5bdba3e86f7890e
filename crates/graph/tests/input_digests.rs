//! Golden input digests: the FNV-1a-64 of the offsets, neighbours and
//! values of every input a cell runs on, built the way the harness builds
//! it — generate the dataset, randomly relabel it, then reorder it. Any
//! change to a generator, to CSR construction or to a relabeling shows up
//! here as a changed digest, so a change that claims byte-identical inputs
//! must pass this test with the golden unedited.
//!
//! Two arms:
//! * all six datasets × five preprocessings at `Scale::Tiny`, relabeled
//!   with the harness's randomize seed (the inputs of `bench_all --scale
//!   tiny`);
//! * `Scale::Bench` arb, twi and nlp under None and DFS, relabeled with
//!   perfbench's recorded seed 24301 (the inputs perfbench runs). Bench
//!   inputs take release-build time to generate, so under a debug test
//!   run this arm is skipped.
//!
//! Regenerate the golden after an intentional input change with
//! `BLESS=1 cargo test --release -p spzip-graph --test input_digests`.

use spzip_graph::datasets::{self, Scale};
use spzip_graph::reorder::{self, Preprocessing};
use spzip_graph::Csr;

/// The harness's randomize seed (`spzip_bench::RANDOMIZE_SEED`).
const HARNESS_SEED: u64 = 0x5EED;

/// FNV-1a (64-bit) over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One golden line: shape and digest of `g`'s offsets, neighbours and
/// values (little-endian; `f64` values by their bits).
fn line(label: &str, g: &Csr) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &o in g.offsets() {
        h = fnv1a(h, &o.to_le_bytes());
    }
    for &d in g.neighbors_flat() {
        h = fnv1a(h, &d.to_le_bytes());
    }
    match g.values_flat() {
        Some(values) => {
            h = fnv1a(h, &[1]);
            for &v in values {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        None => h = fnv1a(h, &[0]),
    }
    format!(
        "{label} n={} m={} {h:016x}\n",
        g.num_vertices(),
        g.num_edges()
    )
}

/// Digest lines of `names` × `preps` at `scale`, each input relabeled
/// with `seed` and then reordered, as the harness and perfbench do.
fn digests(names: &[&str], preps: &[Preprocessing], scale: Scale, seed: u64) -> String {
    let mut out = String::new();
    for &name in names {
        let spec = datasets::by_name(name).expect("known dataset");
        let randomized = reorder::randomize(&spec.generate(scale), seed);
        for &prep in preps {
            let label = format!("{name}/{prep}");
            out += &match prep {
                Preprocessing::None => line(&label, &randomized),
                other => line(&label, &other.apply(&randomized, 0)),
            };
        }
    }
    out
}

/// Compares `actual` with the golden file `name` (rewriting it first under
/// `BLESS`), naming every drifted line.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: golden file missing: {e}"));
    for (got, want) in actual.lines().zip(expected.lines()) {
        if got != want {
            eprintln!("got:    {got}\ngolden: {want}");
        }
    }
    assert!(
        actual == expected,
        "input digests drifted from {name}; rerun with BLESS=1 if intentional"
    );
}

#[test]
fn tiny_inputs_match_the_golden() {
    let names = ["arb", "ukl", "twi", "it", "web", "nlp"];
    let actual = digests(&names, &Preprocessing::all(), Scale::Tiny, HARNESS_SEED);
    check("inputs_tiny.txt", &actual);
}

#[cfg(not(debug_assertions))]
#[test]
fn perfbench_inputs_match_the_golden() {
    let preps = [Preprocessing::None, Preprocessing::Dfs];
    let actual = digests(&["arb", "twi", "nlp"], &preps, Scale::Bench, 24301);
    check("inputs_bench.txt", &actual);
}
