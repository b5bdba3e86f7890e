//! Core instruction-cost model.
//!
//! The simulator's cores consume abstract `Compute(n)` events; this module
//! centralizes the per-operation cycle costs the runtime charges. The
//! constants approximate instruction counts of the corresponding inner
//! loops on a Haswell-class core (a few ALU ops + branches per edge for
//! software traversal; a dequeue + branch for SpZip), and are the only
//! tuning knobs in the performance model.

/// Software traversal: per-source loop overhead (offset handling, bounds,
/// frontier bookkeeping).
pub const SW_PER_SRC: u32 = 6;
/// Software traversal: per-edge index arithmetic and branch.
pub const SW_PER_EDGE: u32 = 5;
/// SpZip: per-source overhead (marker handling).
pub const SPZIP_PER_SRC: u32 = 1;
/// SpZip: per-edge overhead beyond the dequeue instruction.
pub const SPZIP_PER_EDGE: u32 = 1;
/// Applying one update (the algorithm's arithmetic).
pub const APPLY: u32 = 2;
/// Binning an update in software UB (bin id compute + store addressing).
pub const BIN_UPDATE: u32 = 4;
/// Pushing one update into PHI's cache interface.
pub const PHI_PUSH: u32 = 3;
/// Accumulation-phase per-update overhead (software).
pub const ACCUM_UPDATE: u32 = 3;
/// Per-vertex work in vertex phases (e.g. PR contribution recompute).
pub const VERTEX_OP: u32 = 4;

// Software traversal costs more than SpZip's, per edge and per source.
const _: () = assert!(SW_PER_EDGE > SPZIP_PER_EDGE && SW_PER_SRC > SPZIP_PER_SRC);
