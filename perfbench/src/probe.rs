//! Per-layer probes for the traced run. Each drives one crate's public
//! functions with a cell's own data, timed from outside:
//!
//! * `core.func`: the cell's traversal pipeline run by `FuncEngine` over
//!   every `CHUNK_VERTICES` chunk (SpZip cells only);
//! * `core.engine`: those firings replayed through `EngineModel::tick`,
//!   with the core side reduced to feeding inputs and draining outputs;
//! * `mem`: the cell's destination-scatter address stream sent through
//!   `MemorySystem::access_line`.

use spzip_apps::layout::{Workload, CHUNK_VERTICES};
use spzip_apps::pipelines::{self, TraversalOpts, TraversalPipe};
use spzip_apps::scheme::Strategy;
use spzip_apps::RunSpec;
use spzip_core::engine::EngineModel;
use spzip_core::func::{Firing, FuncEngine};
use spzip_core::QueueId;
use spzip_graph::{Csr, VertexId};
use spzip_mem::hierarchy::MemorySystem;
use spzip_mem::{DataClass, MemOp, Port, LINE_BYTES};
use spzip_sim::MachineConfig;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Probe totals, summed over cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTotals {
    /// Host seconds of functional traversal.
    pub func_s: f64,
    /// Firings the functional traversal produced.
    pub func_firings: u64,
    /// Host seconds replaying those firings through the engine model.
    pub engine_s: f64,
    /// Engine cycles the replay advanced through.
    pub engine_cycles: u64,
    /// Host seconds of the scatter stream through the memory system.
    pub mem_s: f64,
    /// Line accesses in that stream.
    pub mem_accesses: u64,
}

impl ProbeTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ProbeTotals) {
        self.func_s += other.func_s;
        self.func_firings += other.func_firings;
        self.engine_s += other.engine_s;
        self.engine_cycles += other.engine_cycles;
        self.mem_s += other.mem_s;
        self.mem_accesses += other.mem_accesses;
    }
}

/// Runs every probe for `spec` on `g`.
pub fn probe_cell(spec: &RunSpec, g: &Arc<Csr>) -> Result<ProbeTotals, String> {
    let mcfg = spec.machine.config;
    let cfg = &spec.scheme;
    let mut alg = spec.app.build();
    let all_active = alg.all_active();
    let mut w = Workload::build(
        g.clone(),
        cfg,
        mcfg.mem.cores,
        mcfg.mem.llc.size_bytes,
        all_active,
    );
    // The runtime's prologue: initial vertex data, then its compressed
    // copies.
    let _ = alg.init(&mut w);
    if cfg.compress_vertex {
        for i in 0..w.csrc.as_ref().map_or(0, |c| c.lens.len()) {
            w.recompress_src_chunk(cfg.vertex_codec, i);
        }
        for i in 0..w.cdst.as_ref().map_or(0, |c| c.lens.len()) {
            w.recompress_dst_chunk(cfg.vertex_codec, i);
        }
    }
    let mut totals = ProbeTotals::default();
    if cfg.spzip {
        let trav = pipelines::traversal(
            &w,
            cfg,
            TraversalOpts {
                all_active,
                prefetch_dst: cfg.strategy == Strategy::Push,
                frontier_compressed: false,
                read_source: alg.reads_source(),
            },
        );
        let t = Instant::now();
        let chunks = functional_traversal(&mut w, &trav, all_active);
        totals.func_s = t.elapsed().as_secs_f64();
        totals.func_firings = chunks
            .iter()
            .flat_map(|(_, f)| f.iter())
            .map(|ops| ops.len() as u64)
            .sum();
        let t = Instant::now();
        totals.engine_cycles = replay_engine(&mcfg, &trav, chunks)?;
        totals.engine_s = t.elapsed().as_secs_f64();
    }
    let stream = scatter_stream(&w, mcfg.mem.cores);
    let mut mem = MemorySystem::new(mcfg.mem);
    let t = Instant::now();
    for (i, &(core, line)) in stream.iter().enumerate() {
        black_box(mem.access_line(
            core,
            Port::Core,
            line,
            MemOp::Atomic,
            DataClass::DestinationVertex,
            i as u64,
        ));
    }
    totals.mem_s = t.elapsed().as_secs_f64();
    totals.mem_accesses = stream.len() as u64;
    Ok(totals)
}

/// One traversal chunk: the core-side enqueues and per-operator firings.
type ChunkTrace = (Vec<(QueueId, u16)>, Vec<Vec<Firing>>);

/// Runs the traversal pipeline over every `CHUNK_VERTICES` chunk of
/// vertices, as `TraversalSource::spzip_chunk` feeds it. Frontier-driven
/// cells traverse a frontier holding every vertex.
fn functional_traversal(
    w: &mut Workload,
    trav: &TraversalPipe,
    all_active: bool,
) -> Vec<ChunkTrace> {
    let n = w.n() as u32;
    if !all_active {
        for v in 0..n {
            w.img.write_u32(w.frontier_addr + v as u64 * 4, v);
        }
    }
    let mut chunks = Vec::new();
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + CHUNK_VERTICES).min(n);
        let mut eng = FuncEngine::new(trav.pipeline.clone());
        if !all_active {
            eng.enqueue_value(trav.in_q, lo as u64, 8);
            eng.enqueue_value(trav.in_q, hi as u64, 8);
        } else {
            match &w.cadj {
                Some(cadj) => {
                    let g = cadj.group_rows;
                    eng.enqueue_value(trav.in_q, (lo / g) as u64, 8);
                    eng.enqueue_value(trav.in_q, hi.div_ceil(g) as u64 + 1, 8);
                }
                None => {
                    eng.enqueue_value(trav.in_q, lo as u64, 8);
                    eng.enqueue_value(trav.in_q, hi as u64 + 1, 8);
                }
            }
            if let Some(src_in) = trav.src_in_q {
                match &w.csrc {
                    Some(csrc) => {
                        let c = csrc.chunk_elems;
                        for ci in (lo / c)..hi.div_ceil(c) {
                            let off = csrc.chunk_addr(ci as usize) - csrc.base;
                            let len = csrc.lens[ci as usize] as u64;
                            eng.enqueue_value(src_in, off, 8);
                            eng.enqueue_value(src_in, off + len, 8);
                        }
                    }
                    None => {
                        eng.enqueue_value(src_in, lo as u64, 8);
                        eng.enqueue_value(src_in, hi as u64, 8);
                    }
                }
            }
        }
        eng.run(&mut w.img);
        black_box(eng.drain_output_costed(trav.neigh_q));
        if let Some(q) = trav.contrib_q {
            black_box(eng.drain_output_costed(q));
        }
        chunks.push((eng.enqueue_log().to_vec(), eng.take_firings()));
        lo = hi;
    }
    chunks
}

/// Replays `chunks` through one fetcher `EngineModel` on an empty memory
/// system, quantum by quantum, feeding inputs as queue space allows and
/// draining the core-facing outputs each quantum. Returns the engine
/// cycles the replay took.
fn replay_engine(
    mcfg: &MachineConfig,
    trav: &TraversalPipe,
    chunks: Vec<ChunkTrace>,
) -> Result<u64, String> {
    let mut mem = MemorySystem::new(mcfg.mem);
    let mut engine = EngineModel::new(mcfg.fetcher, 0);
    engine.load_program(&trav.pipeline, 0);
    let outputs: Vec<QueueId> = std::iter::once(trav.neigh_q)
        .chain(trav.contrib_q)
        .collect();
    let mut inputs: VecDeque<(QueueId, u16)> = VecDeque::new();
    for (log, firings) in chunks {
        engine.append_trace(firings);
        inputs.extend(log);
    }
    let quantum = mcfg.quantum;
    let mut now = 0u64;
    let mut idle_since = 0u64;
    while !(inputs.is_empty() && engine.idle()) {
        while let Some(&(q, quarters)) = inputs.front() {
            if !engine.can_enqueue(q, quarters) {
                break;
            }
            engine.enqueue(q, quarters);
            inputs.pop_front();
        }
        if engine.tick(now, quantum, &mut mem) > 0 {
            idle_since = now;
        } else if now - idle_since > mcfg.deadlock_cycles {
            return Err(format!(
                "engine replay made no progress after cycle {idle_since}"
            ));
        }
        for &q in &outputs {
            let mut left = engine.occupancy(q);
            while left > 0 {
                let take = u16::try_from(left).unwrap_or(u16::MAX);
                engine.dequeue(q, take);
                left -= take as u32;
            }
        }
        now += quantum;
    }
    Ok(now)
}

/// The destination-vertex line each edge's scatter update touches, in
/// traversal order, with chunks dealt round-robin across cores.
fn scatter_stream(w: &Workload, cores: usize) -> Vec<(usize, u64)> {
    let g = &w.g;
    let mut out = Vec::with_capacity(g.num_edges());
    for src in 0..g.num_vertices() as VertexId {
        let core = (src / CHUNK_VERTICES) as usize % cores;
        for &dst in g.neighbors(src) {
            out.push((core, (w.dst_addr + dst as u64 * 4) / LINE_BYTES));
        }
    }
    out
}
