//! The benchmark's workloads (fixed sets of experiment cells) and their
//! set-up: input generation and reordering from the workload seed.

use spzip_apps::{AppName, RunSpec, Scheme};
use spzip_graph::datasets::{self, Scale};
use spzip_graph::reorder::{self, Preprocessing};
use spzip_graph::Csr;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One experiment cell of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Application.
    pub app: AppName,
    /// Dataset short name.
    pub input: &'static str,
    /// Preprocessing applied after id randomization.
    pub prep: Preprocessing,
    /// Scheme.
    pub scheme: Scheme,
}

impl Cell {
    const fn new(app: AppName, input: &'static str, prep: Preprocessing, scheme: Scheme) -> Cell {
        Cell {
            app,
            input,
            prep,
            scheme,
        }
    }

    /// The cell's stable label, e.g. `PR/arb/DFS/Push+SpZip`; digests in
    /// `record.json` are keyed by it.
    pub fn label(&self) -> String {
        format!("{}/{}/{}/{}", self.app, self.input, self.prep, self.scheme)
    }

    /// The cell as the harness's keyed run specification.
    pub fn spec(&self, scale: Scale) -> RunSpec {
        RunSpec::new(self.app, self.input, self.scheme.config(), self.prep, scale)
    }
}

/// A named set of cells run one after another.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Cells in run order.
    pub cells: &'static [Cell],
}

use AppName::{Bfs, Dc, Pr, Sp};
use Preprocessing::{Dfs, None as NoPrep};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "push-sw",
        cells: &[
            Cell::new(Pr, "arb", NoPrep, Scheme::Push),
            Cell::new(Dc, "twi", NoPrep, Scheme::Push),
            Cell::new(Sp, "nlp", NoPrep, Scheme::Push),
        ],
    },
    Workload {
        name: "push-spzip",
        cells: &[
            Cell::new(Pr, "arb", Dfs, Scheme::PushSpzip),
            Cell::new(Bfs, "arb", Dfs, Scheme::PushSpzip),
        ],
    },
    Workload {
        name: "bin-spzip",
        cells: &[
            Cell::new(Pr, "arb", NoPrep, Scheme::UbSpzip),
            Cell::new(Sp, "nlp", NoPrep, Scheme::PhiSpzip),
        ],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// The generated inputs of one set-up, keyed by (dataset, preprocessing).
#[derive(Debug)]
pub struct Inputs {
    graphs: BTreeMap<(&'static str, String), Arc<Csr>>,
    /// Host seconds in `DatasetSpec::generate`.
    pub gen_s: f64,
    /// Host seconds in `reorder::randomize` and `Preprocessing::apply`.
    pub reorder_s: f64,
}

impl Inputs {
    /// Generates every input `cells` need: each dataset once, its ids
    /// randomized with `seed`, then reordered by each requested
    /// preprocessing — the same construction as the harness's
    /// `build_input`, which uses `seed = RANDOMIZE_SEED`.
    ///
    /// # Panics
    ///
    /// Panics if a cell names an unknown dataset (a bug in [`WORKLOADS`]).
    pub fn build(cells: &[Cell], scale: Scale, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            graphs: BTreeMap::new(),
            gen_s: 0.0,
            reorder_s: 0.0,
        };
        let mut randomized: BTreeMap<&'static str, Arc<Csr>> = BTreeMap::new();
        for cell in cells {
            let key = (cell.input, cell.prep.to_string());
            if inputs.graphs.contains_key(&key) {
                continue;
            }
            if !randomized.contains_key(cell.input) {
                let spec = datasets::by_name(cell.input).expect("workload names a known dataset");
                let t = Instant::now();
                let g = spec.generate(scale);
                inputs.gen_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let r = reorder::randomize(&g, seed);
                inputs.reorder_s += t.elapsed().as_secs_f64();
                randomized.insert(cell.input, Arc::new(r));
            }
            let base = &randomized[cell.input];
            let g = match cell.prep {
                Preprocessing::None => base.clone(),
                other => {
                    let t = Instant::now();
                    let g = other.apply(base, 0);
                    inputs.reorder_s += t.elapsed().as_secs_f64();
                    Arc::new(g)
                }
            };
            inputs.graphs.insert(key, g);
        }
        inputs
    }

    /// The input of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not among the cells the inputs were built for.
    pub fn get(&self, cell: &Cell) -> &Arc<Csr> {
        &self.graphs[&(cell.input, cell.prep.to_string())]
    }
}
