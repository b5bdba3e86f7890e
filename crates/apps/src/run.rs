//! Top-level runner: execute one (application, input, scheme)
//! configuration on the simulated machine, validate against a reference
//! execution, and report cycles and traffic.

use crate::alg::{results_match, Algorithm};
use crate::apps::{
    bfs::Bfs, cc::ConnectedComponents, dc::DegreeCounting, pr::PageRank, prd::PageRankDelta,
    re::RadiiEstimation, spmv::SpMv,
};
use crate::layout::Workload;
use crate::runtime::{self, AlgoRunStats};
use crate::scheme::{SchemeConfig, Strategy};
use spzip_graph::{Csr, VertexId};
use spzip_sim::{DeadlockReport, Machine, MachineConfig, RunReport};
use std::fmt;
use std::sync::Arc;

/// The seven applications by paper abbreviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppName {
    /// PageRank.
    Pr,
    /// PageRank-Delta.
    Prd,
    /// Connected Components.
    Cc,
    /// Radii Estimation.
    Re,
    /// Degree Counting.
    Dc,
    /// Breadth-First Search.
    Bfs,
    /// Sparse matrix-vector multiplication.
    Sp,
}

impl AppName {
    /// All applications, in the paper's figure order.
    pub fn all() -> [AppName; 7] {
        [
            AppName::Pr,
            AppName::Prd,
            AppName::Cc,
            AppName::Re,
            AppName::Dc,
            AppName::Bfs,
            AppName::Sp,
        ]
    }

    /// The six graph applications (SpMV runs on the matrix input).
    pub fn graph_apps() -> [AppName; 6] {
        [
            AppName::Pr,
            AppName::Prd,
            AppName::Cc,
            AppName::Re,
            AppName::Dc,
            AppName::Bfs,
        ]
    }

    /// Whether this application consumes the matrix dataset.
    pub fn is_matrix(&self) -> bool {
        matches!(self, AppName::Sp)
    }

    /// Instantiates the algorithm.
    pub fn build(&self) -> Box<dyn Algorithm> {
        match self {
            AppName::Pr => Box::new(PageRank::new(2)),
            AppName::Prd => Box::new(PageRankDelta::new(3)),
            AppName::Cc => Box::new(ConnectedComponents::new()),
            AppName::Re => Box::new(RadiiEstimation::new()),
            AppName::Dc => Box::new(DegreeCounting::new()),
            AppName::Bfs => Box::new(Bfs::new(0)),
            AppName::Sp => Box::new(SpMv::new()),
        }
    }
}

impl fmt::Display for AppName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppName::Pr => "PR",
            AppName::Prd => "PRD",
            AppName::Cc => "CC",
            AppName::Re => "RE",
            AppName::Dc => "DC",
            AppName::Bfs => "BFS",
            AppName::Sp => "SP",
        };
        f.write_str(s)
    }
}

/// Outcome of one simulated run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Timing and traffic report.
    pub report: RunReport,
    /// Algorithm-level statistics.
    pub stats: AlgoRunStats,
    /// Whether results matched the reference execution.
    pub validated: bool,
    /// Adjacency-matrix compression ratio, when compressed.
    pub adjacency_ratio: Option<f64>,
    /// The watchdog's wait-for report, if the simulated machine wedged
    /// (a protocol bug; results and timing are then meaningless).
    pub deadlock: Option<DeadlockReport>,
}

/// Runs `app` on `g` under `cfg`, validating against a reference
/// functional execution. If the simulated machine deadlocks (an
/// instrumentation bug), the outcome carries the watchdog's
/// [`DeadlockReport`] instead of panicking.
pub fn run_app(app: AppName, g: &Arc<Csr>, cfg: &SchemeConfig, mcfg: MachineConfig) -> RunOutcome {
    run_app_full(app, g, cfg, mcfg, None, false)
}

/// [`run_app`] with every knob: fetcher scratchpad override (Fig. 21) and
/// the compressed-memory-hierarchy baseline (Fig. 22).
pub fn run_app_full(
    app: AppName,
    g: &Arc<Csr>,
    cfg: &SchemeConfig,
    mcfg: MachineConfig,
    fetcher_scratchpad: Option<u32>,
    cmh: bool,
) -> RunOutcome {
    let mut machine = Machine::new(mcfg);
    let (stats, validated, adjacency_ratio) =
        simulate(&mut machine, app, g, cfg, fetcher_scratchpad, cmh);
    let deadlock = machine.take_deadlock();
    RunOutcome {
        report: machine.finish(),
        stats,
        validated,
        adjacency_ratio,
        deadlock,
    }
}

/// [`run_app`] with the SimSanitizer enabled: the machine records the
/// synchronization/memory trace, the run bypasses nothing functionally,
/// and the outcome is paired with the sanitizer's verdict — race
/// detection, queue-protocol and accounting checks from the trace, plus
/// codec byte-conservation over the workload's compressed regions.
/// Machine deadlocks surface through [`RunOutcome::deadlock`], as in
/// [`run_app`].
pub fn run_app_sanitized(
    app: AppName,
    g: &Arc<Csr>,
    cfg: &SchemeConfig,
    mcfg: MachineConfig,
    fetcher_scratchpad: Option<u32>,
    cmh: bool,
) -> (RunOutcome, spzip_sim::sanitize::SanitizeReport) {
    let mut machine = Machine::new(mcfg);
    machine.enable_sanitizer();
    let (stats, validated, adjacency_ratio) =
        simulate(&mut machine, app, g, cfg, fetcher_scratchpad, cmh);
    let deadlock = machine.take_deadlock();
    let (report, sanitize) = machine.finish_sanitized();
    (
        RunOutcome {
            report,
            stats,
            validated,
            adjacency_ratio,
            deadlock,
        },
        sanitize,
    )
}

/// The run every entry point shares, on a freshly built `machine`: lay
/// out the workload, simulate `app`, and validate its result against a
/// reference execution. Returns the run's statistics, whether it
/// validated, and the adjacency compression ratio.
fn simulate(
    machine: &mut Machine,
    app: AppName,
    g: &Arc<Csr>,
    cfg: &SchemeConfig,
    fetcher_scratchpad: Option<u32>,
    cmh: bool,
) -> (AlgoRunStats, bool, Option<f64>) {
    if let Some(bytes) = fetcher_scratchpad {
        machine.set_fetcher_scratchpad(bytes);
    }
    let mcfg = *machine.config();
    let mut alg = app.build();
    let all_active = alg.all_active();
    let mut w = Workload::build(
        g.clone(),
        cfg,
        mcfg.mem.cores,
        mcfg.mem.llc.size_bytes,
        all_active,
    );
    if cmh {
        // Snapshot the compressibility profile from *computed* data: a
        // throwaway functional run fills the vertex arrays with their
        // steady-state values (freshly-initialized arrays are uniformly
        // repetitive and would flatter BDI absurdly). The profile stays
        // static during the timed run — a documented approximation.
        let mut probe_alg = app.build();
        let mut probe_w = Workload::build(
            g.clone(),
            cfg,
            mcfg.mem.cores,
            mcfg.mem.llc.size_bytes,
            all_active,
        );
        let _ = reference_run(probe_alg.as_mut(), &mut probe_w);
        machine.enable_cmh(probe_w.img.bdi_profile());
    }
    let stats = runtime::run_algorithm(machine, &mut w, alg.as_mut(), cfg);
    let result = alg.result(&w);
    // Vertex-slice conservation is checked inside run_algorithm at each
    // iteration's sync point; the static adjacency is checked here.
    if machine.sanitizing() {
        for v in crate::sanitize::check_adjacency_conservation(&w, cfg) {
            machine.note_violation(v);
        }
    }

    // Reference: the same functional trajectory without the machine.
    let mut ref_alg = app.build();
    let mut ref_w = Workload::build(
        g.clone(),
        &SchemeConfig::software(Strategy::Push),
        mcfg.mem.cores,
        mcfg.mem.llc.size_bytes,
        all_active,
    );
    let reference = reference_run(ref_alg.as_mut(), &mut ref_w);
    let validated = results_match(alg.as_ref(), &result, &reference);
    (stats, validated, w.cadj.as_ref().map(|c| c.ratio))
}

/// Pure functional execution in the same order the instrumented runtime
/// uses (frontier order, immediate application).
pub fn reference_run(alg: &mut dyn Algorithm, w: &mut Workload) -> Vec<u32> {
    let n = w.n();
    let mut frontier: Vec<VertexId> = match alg.init(w) {
        Some(ids) => ids,
        None => (0..n as VertexId).collect(),
    };
    for iteration in 0..alg.max_iterations() {
        if frontier.is_empty() {
            break;
        }
        let mut in_next = vec![false; n];
        let mut activations = Vec::new();
        for &src in &frontier {
            let (elo, ehi) = w.g.row_range(src);
            for e in elo..ehi {
                let dst = w.g.neighbors_flat()[e];
                let payload = alg.payload(w, src, e);
                if alg.apply(w, dst, payload) && !in_next[dst as usize] {
                    in_next[dst as usize] = true;
                    activations.push(dst);
                }
            }
        }
        if alg.end_iteration(w, iteration) == crate::alg::EndIter::Done {
            break;
        }
        if alg.all_active() {
            continue;
        }
        activations.sort_unstable();
        frontier = activations;
    }
    alg.result(w)
}
