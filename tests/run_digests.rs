//! Golden run digests: the FNV-1a-64 of `RunReport::to_kv` for every
//! tiny cell of the validation matrix (7 apps x 6 schemes, with and
//! without DFS preprocessing), the Fig. 21 scratchpad and Fig. 22 CMH
//! knobs, two other quanta, and one wedged cell whose deadlock report is
//! pinned too. Any drift in the simulated schedule (a cycle, a byte, a
//! firing) changes a digest, so a change that claims to be cycle-exact
//! must pass this test with the golden unedited.
//!
//! Regenerate the golden after an intentional timing-model change with
//! `BLESS=1 cargo test -p spzip-integration --test run_digests`.

use spzip_apps::{run_app_full, AppName, RunOutcome, Scheme};
use spzip_graph::csr::Csr;
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_graph::reorder::Preprocessing;
use spzip_mem::cache::{CacheConfig, Replacement};
use spzip_sim::MachineConfig;
use std::sync::Arc;

/// The 4-core, 32 KB-LLC machine of `validation_matrix.rs`.
fn tiny_machine() -> MachineConfig {
    let mut cfg = MachineConfig::paper_scaled();
    cfg.mem.cores = 4;
    cfg.mem.llc = CacheConfig::new(32 * 1024, 16, Replacement::Drrip);
    cfg
}

/// One simulated cell and the knobs it sets beyond the tiny machine.
struct Cell {
    label: String,
    app: AppName,
    input: Arc<Csr>,
    scheme: Scheme,
    mcfg: MachineConfig,
    fetcher_scratchpad: Option<u32>,
    cmh: bool,
}

impl Cell {
    fn new(app: AppName, prep: &str, input: &Arc<Csr>, scheme: Scheme) -> Self {
        Cell {
            label: format!("{app}/{prep}/{scheme}"),
            app,
            input: Arc::clone(input),
            scheme,
            mcfg: tiny_machine(),
            fetcher_scratchpad: None,
            cmh: false,
        }
    }

    fn tagged(mut self, tag: &str) -> Self {
        self.label = format!("{}/{tag}", self.label);
        self
    }

    fn run(&self) -> RunOutcome {
        run_app_full(
            self.app,
            &self.input,
            &self.scheme.config(),
            self.mcfg,
            self.fetcher_scratchpad,
            self.cmh,
        )
    }
}

fn cells() -> Vec<Cell> {
    let g = community(&CommunityParams::web_crawl(600, 6), 23);
    let m = grid3d(6, 1, 4);
    let g_dfs = Arc::new(Preprocessing::Dfs.apply(&g, 7));
    let m_dfs = Arc::new(Preprocessing::Dfs.apply(&m, 7));
    let (g, m) = (Arc::new(g), Arc::new(m));
    let mut cells = Vec::new();
    for (prep, g, m) in [("none", &g, &m), ("DFS", &g_dfs, &m_dfs)] {
        for app in AppName::all() {
            let input = if app.is_matrix() { m } else { g };
            for scheme in Scheme::all() {
                cells.push(Cell::new(app, prep, input, scheme));
            }
        }
    }
    let cell = |app, scheme| Cell::new(app, "none", &g, scheme);
    for (app, scheme) in [
        (AppName::Pr, Scheme::PushSpzip),
        (AppName::Bfs, Scheme::UbSpzip),
    ] {
        for bytes in [256, 2048] {
            let mut c = cell(app, scheme).tagged(&format!("spad={bytes}"));
            c.fetcher_scratchpad = Some(bytes);
            cells.push(c);
        }
    }
    for scheme in [Scheme::Push, Scheme::UbSpzip] {
        let mut c = cell(AppName::Pr, scheme).tagged("cmh");
        c.cmh = true;
        cells.push(c);
    }
    for (app, scheme) in [
        (AppName::Pr, Scheme::UbSpzip),
        (AppName::Bfs, Scheme::PushSpzip),
    ] {
        for quantum in [1, 64] {
            let mut c = cell(app, scheme).tagged(&format!("quantum={quantum}"));
            c.mcfg.quantum = quantum;
            cells.push(c);
        }
    }
    let mut wedged = cell(AppName::Pr, Scheme::UbSpzip).tagged("deadlock_cycles=1");
    wedged.mcfg.deadlock_cycles = 1;
    cells.push(wedged);
    cells
}

/// FNV-1a (64-bit) of `text` as 16 hex digits: the digest perfbench
/// records per cell in `record.json`.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs `cell` and returns its `(label, digested text)` lines: the
/// report, plus the rendered deadlock report when the machine wedged.
fn digest_lines(cell: &Cell) -> Vec<(String, String)> {
    let out = cell.run();
    let mut lines = vec![(cell.label.clone(), out.report.to_kv())];
    match &out.deadlock {
        Some(d) => lines.push((format!("{}/deadlock", cell.label), d.render())),
        None => assert!(out.validated, "{} diverged from reference", cell.label),
    }
    lines
}

#[test]
fn run_digests_match_the_golden() {
    let lines: Vec<(String, String)> = cells().iter().flat_map(digest_lines).collect();
    assert!(
        lines.iter().any(|(l, _)| l.ends_with("/deadlock")),
        "the deadlock_cycles=1 cell must wedge"
    );
    let actual: String = lines
        .iter()
        .map(|(label, text)| format!("{label} {}\n", digest(text)))
        .collect();

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/run_digests.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(golden_path).expect("golden file checked in");
    if actual == expected {
        return;
    }
    let want: std::collections::BTreeMap<&str, &str> = expected
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    for (label, text) in &lines {
        let got = digest(text);
        if want.get(label.as_str()) != Some(&got.as_str()) {
            eprintln!(
                "{label}: digest {got}, golden {}\n{text}",
                want.get(label.as_str()).unwrap_or(&"(none)")
            );
        }
    }
    panic!("run digests drifted from the golden; rerun with BLESS=1 if intentional");
}
