//! Declarative figure definitions: cells in, text out.
//!
//! Every figure/table is a pair of pure functions over a [`SweepOpts`]:
//! `cells` enumerates the [`RunSpec`]s the figure needs, and `render`
//! formats its text from the [`Memo`] of executed outcomes. Simulation
//! policy (parallelism, caching, dedup) lives entirely in
//! [`crate::driver`]; overlapping cells across figures — Fig. 16/17 are
//! subsets of Fig. 15's sweep, Fig. 21's default-scratchpad point is a
//! Fig. 15 cell — are simulated once per `bench_all` process.

pub mod fig07;
pub mod fig15;
pub mod fig16;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod sorted;
pub mod tables;

use crate::driver::Memo;
use spzip_apps::{AppName, RunSpec};
use spzip_graph::datasets::Scale;
use spzip_graph::reorder::Preprocessing;

/// The five graph inputs, in the paper's order (SpMV uses `nlp`).
pub const GRAPH_INPUTS: [&str; 5] = ["arb", "ukl", "twi", "it", "web"];

/// What a figure sweeps over: scale, the randomized-vs-preprocessed
/// variant, and optional app/input restrictions.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Input generation scale.
    pub scale: Scale,
    /// Preprocessed (`true`, DFS) or randomized-id (`false`) inputs.
    pub preprocess: bool,
    /// Restrict sweep figures to these apps (paper abbreviations).
    pub apps: Option<Vec<String>>,
    /// Restrict sweep figures to these inputs (dataset short names).
    pub inputs: Option<Vec<String>>,
}

impl SweepOpts {
    /// Options with no app/input restrictions.
    pub fn new(scale: Scale, preprocess: bool) -> Self {
        SweepOpts {
            scale,
            preprocess,
            apps: None,
            inputs: None,
        }
    }

    /// The preprocessing this sweep applies.
    pub fn prep(&self) -> Preprocessing {
        if self.preprocess {
            Preprocessing::Dfs
        } else {
            Preprocessing::None
        }
    }

    /// Whether `app` passes the `--apps` filter.
    pub fn app_selected(&self, app: AppName) -> bool {
        self.apps
            .as_ref()
            .is_none_or(|f| f.iter().any(|x| x.eq_ignore_ascii_case(&app.to_string())))
    }

    /// Whether `input` passes the `--inputs` filter.
    pub fn input_selected(&self, input: &str) -> bool {
        self.inputs
            .as_ref()
            .is_none_or(|f| f.iter().any(|x| x == input))
    }
}

/// One named output of `bench_all`: which sweep variant it renders, the
/// cells it needs, and its renderer.
pub struct FigureOutput {
    /// Output file stem (`results/<name>.txt`).
    pub name: &'static str,
    /// Whether this output renders the DFS-preprocessed variant.
    pub preprocess: bool,
    /// Enumerates the cells the renderer will read.
    pub cells: fn(&SweepOpts) -> Vec<RunSpec>,
    /// Formats the output text from executed outcomes.
    pub render: fn(&SweepOpts, &Memo) -> String,
}

fn no_cells(_: &SweepOpts) -> Vec<RunSpec> {
    Vec::new()
}

/// Every output `bench_all` produces, in `run_experiments.sh`'s historic
/// order (tables first, then figures, then the text studies).
pub fn all_outputs() -> Vec<FigureOutput> {
    vec![
        FigureOutput {
            name: "table1",
            preprocess: false,
            cells: no_cells,
            render: tables::render_table1,
        },
        FigureOutput {
            name: "table2",
            preprocess: false,
            cells: no_cells,
            render: tables::render_table2,
        },
        FigureOutput {
            name: "table3",
            preprocess: false,
            cells: no_cells,
            render: tables::render_table3,
        },
        FigureOutput {
            name: "fig07",
            preprocess: false,
            cells: fig07::cells,
            render: fig07::render,
        },
        FigureOutput {
            name: "fig08",
            preprocess: true,
            cells: fig07::cells,
            render: fig07::render,
        },
        FigureOutput {
            name: "fig15ab",
            preprocess: false,
            cells: fig15::cells,
            render: fig15::render,
        },
        FigureOutput {
            name: "fig15cd",
            preprocess: true,
            cells: fig15::cells,
            render: fig15::render,
        },
        FigureOutput {
            name: "fig16",
            preprocess: false,
            cells: fig16::cells,
            render: fig16::render,
        },
        FigureOutput {
            name: "fig17",
            preprocess: true,
            cells: fig16::cells,
            render: fig16::render,
        },
        FigureOutput {
            name: "fig18",
            preprocess: false,
            cells: fig18::cells,
            render: fig18::render,
        },
        FigureOutput {
            name: "fig19a",
            preprocess: false,
            cells: fig19::cells,
            render: fig19::render,
        },
        FigureOutput {
            name: "fig19b",
            preprocess: true,
            cells: fig19::cells,
            render: fig19::render,
        },
        FigureOutput {
            name: "fig20a",
            preprocess: false,
            cells: fig20::cells,
            render: fig20::render,
        },
        FigureOutput {
            name: "fig20b",
            preprocess: true,
            cells: fig20::cells,
            render: fig20::render,
        },
        FigureOutput {
            name: "fig21",
            preprocess: false,
            cells: fig21::cells,
            render: fig21::render,
        },
        FigureOutput {
            name: "fig22a",
            preprocess: false,
            cells: fig22::cells,
            render: fig22::render,
        },
        FigureOutput {
            name: "fig22b",
            preprocess: true,
            cells: fig22::cells,
            render: fig22::render,
        },
        FigureOutput {
            name: "sorted",
            preprocess: false,
            cells: sorted::cells,
            render: sorted::render,
        },
    ]
}
