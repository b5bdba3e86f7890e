//! Phase executors: the scheme-aware heart of the runtime.
//!
//! Each iteration of an algorithm runs as one or more *phases* on the
//! simulated machine. Every phase is driven by a [`WorkSource`] that hands
//! out chunks of work to whichever core drains first (the paper's chunked
//! work-stealing), generating each chunk's core events — and, for SpZip
//! schemes, running the DCL pipelines functionally to produce the
//! engines' firing traces.
//!
//! Phase structure per strategy (Sec. II):
//!
//! * **Push**: one traversal phase per iteration; cores apply scatter
//!   updates with atomics (destination data optionally prefetched by the
//!   fetcher).
//! * **UB**: a binning phase (traversal + update binning, through the
//!   compressor's MQU pipeline under SpZip) followed by per-bin
//!   accumulation phases.
//! * **PHI**: a binning phase where updates coalesce in the LLC-level PHI
//!   unit and only evicted lines spill to bins, then accumulation.
//!
//! Functional-vs-timing split: all seven algorithms have commutative,
//! within-iteration order-insensitive updates, so the runtime applies them
//! functionally at generation time; the event streams and firing traces
//! replay the strategy's actual schedule (binning, coalescing, deferred
//! application) for timing and traffic.

use crate::alg::{Algorithm, EndIter};
use crate::cost;
use crate::layout::{self, Workload, CHUNK_VERTICES, DST_SUBCHUNK};
use crate::pipelines::{self, TraversalOpts};
use crate::scheme::{SchemeConfig, Strategy};
use spzip_compress::CodecCtx;
use spzip_core::func::{Firing, FuncEngine};
use spzip_core::memory::MemoryImage;
use spzip_core::{QueueId, QueueItem};
use spzip_graph::VertexId;
use spzip_mem::phi::{PhiLine, PhiPush, PhiUnit};
use spzip_mem::DataClass;
use spzip_sim::{CoreWork, Event, Machine, WorkSource};

/// Statistics of one algorithm run.
#[derive(Debug, Clone, Default)]
pub struct AlgoRunStats {
    /// Iterations simulated.
    pub iterations: usize,
    /// Edges processed (sum of active out-degrees over iterations).
    pub edges: u64,
    /// PHI coalesced / spilled update counts (PHI schemes only).
    pub phi_coalesced: u64,
    /// Updates spilled to bins.
    pub phi_spilled: u64,
    /// Raw bytes of binned updates (8 B per update).
    pub bin_raw_bytes: u64,
    /// Bytes the bins occupied as stored (compressed under SpZip).
    pub bin_stored_bytes: u64,
}

/// A compressed-frontier chunk descriptor (host-side metadata standing in
/// for the lengths a real runtime would track).
#[derive(Debug, Clone, Copy)]
struct CFrontierChunk {
    /// Byte offset within the `cfrontier` region.
    pos: u64,
    /// Compressed length in bytes.
    len: u32,
    /// Range of ids (indices into the host frontier vector).
    ids_lo: usize,
    ids_hi: usize,
}

/// One unit of schedulable work.
#[derive(Debug, Clone, Copy)]
enum Chunk {
    /// All-active vertex range `[lo, hi)`.
    VertexRange { lo: u32, hi: u32 },
    /// Frontier indices `[lo, hi)` into the frontier array.
    FrontierRange { lo: u32, hi: u32 },
    /// A compressed frontier chunk.
    CFrontier(CFrontierChunk),
}

/// Runs `alg` to completion under `cfg` on `machine` over `w`.
/// Returns run statistics; `machine.finish()` afterwards yields the report.
pub fn run_algorithm(
    machine: &mut Machine,
    w: &mut Workload,
    alg: &mut dyn Algorithm,
    cfg: &SchemeConfig,
) -> AlgoRunStats {
    let cores = machine.config().mem.cores;
    let llc_bytes = machine.config().mem.llc.size_bytes;
    let all_active = alg.all_active();

    let initial = alg.init(w);
    let mut frontier: Vec<VertexId> = match initial {
        Some(ids) => ids,
        None => (0..w.n() as VertexId).collect(),
    };

    // Initialize compressed vertex structures from current contents.
    if cfg.compress_vertex {
        for i in 0..w.cdst.as_ref().map_or(0, |c| c.lens.len()) {
            w.recompress_dst_chunk(cfg.vertex_codec, i);
        }
        for i in 0..w.csrc.as_ref().map_or(0, |c| c.lens.len()) {
            w.recompress_src_chunk(cfg.vertex_codec, i);
        }
    }

    let frontier_compressed = cfg.compress_vertex && !all_active && cfg.spzip;
    let mut cfrontier_chunks: Vec<CFrontierChunk> = Vec::new();
    if !all_active {
        write_frontier_raw(w, &frontier);
        if frontier_compressed {
            cfrontier_chunks = compress_frontier_host(w, cfg, &frontier, cores);
        }
    }

    let mut stats = AlgoRunStats::default();
    let mut phi = (cfg.strategy == Strategy::Phi).then(|| PhiUnit::new(llc_bytes, 16, 4));

    for iteration in 0..alg.max_iterations() {
        if frontier.is_empty() {
            break;
        }
        stats.iterations = iteration + 1;
        let edges: u64 = frontier.iter().map(|&v| w.g.out_degree(v) as u64).sum();
        stats.edges += edges;

        let mut activations: Vec<VertexId> = Vec::new();
        match cfg.strategy {
            Strategy::Push => {
                run_traversal_phase(
                    machine,
                    w,
                    alg,
                    cfg,
                    &frontier,
                    &cfrontier_chunks,
                    None,
                    &mut activations,
                    &mut None,
                );
            }
            Strategy::Ub | Strategy::Phi => {
                let bins = w.bins.as_ref().expect("UB/PHI needs bins");
                let num_bins = bins.num_bins;
                // Binned update tuples per (writer core, bin), plus per-bin
                // activation lists used during accumulation.
                let mut binned: Vec<Vec<Vec<u64>>> =
                    vec![vec![Vec::new(); num_bins as usize]; cores];
                run_traversal_phase(
                    machine,
                    w,
                    alg,
                    cfg,
                    &frontier,
                    &cfrontier_chunks,
                    Some(&mut binned),
                    &mut activations,
                    &mut phi,
                );
                if let Some(p) = &phi {
                    stats.phi_coalesced = p.coalesced();
                    stats.phi_spilled = p.spilled();
                }
                // Bin compression accounting (the Sec. V-C ratio study).
                for (c, per_core) in binned.iter().enumerate() {
                    for (b, updates) in per_core.iter().enumerate() {
                        if updates.is_empty() {
                            continue;
                        }
                        stats.bin_raw_bytes += updates.len() as u64 * 8;
                        let bins = w.bins.as_ref().unwrap();
                        stats.bin_stored_bytes += if cfg.spzip {
                            w.img.read_u64(bins.meta_addr(c, b as u32))
                        } else {
                            updates.len() as u64 * 8
                        };
                    }
                }
                run_accumulation(machine, w, cfg, cores, &binned);
            }
        }

        // The vertex-slice conservation contract holds exactly here:
        // every accumulation recompressed the chunks it touched, and the
        // host-side end_iteration below may rewrite the raw arrays
        // without recompressing.
        if machine.sanitizing() {
            for v in crate::sanitize::check_vertex_conservation(w, cfg) {
                machine.note_violation(v);
            }
        }

        let end = alg.end_iteration(w, iteration);
        if end == EndIter::ContinueWithVertexPhase {
            run_vertex_phase(machine, w, cfg);
        }
        if end == EndIter::Done {
            break;
        }
        if all_active {
            continue;
        }
        activations.sort_unstable();
        activations.dedup();
        frontier = activations;
        if frontier.is_empty() {
            break;
        }
        write_frontier_raw(w, &frontier);
        if frontier_compressed {
            cfrontier_chunks = compress_frontier_phase(machine, w, cfg, &frontier, cores);
        }
    }
    stats
}

/// Writes the frontier ids into the raw frontier array (functional state
/// for the next iteration's reads).
fn write_frontier_raw(w: &mut Workload, ids: &[VertexId]) {
    for (i, &v) in ids.iter().enumerate() {
        w.img.write_u32(w.frontier_addr + i as u64 * 4, v);
    }
}

/// Host-side initial frontier compression (before the machine runs).
fn compress_frontier_host(
    w: &mut Workload,
    cfg: &SchemeConfig,
    ids: &[VertexId],
    cores: usize,
) -> Vec<CFrontierChunk> {
    let mut ctx = CodecCtx::new(cfg.vertex_codec);
    let region_cap = region_capacity(w, cores);
    let mut chunks = Vec::new();
    let mut cursors = vec![0u64; cores];
    let mut values: Vec<u64> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut ids_lo = 0;
    for (ci, chunk_ids) in ids.chunks(CHUNK_VERTICES as usize).enumerate() {
        let core = ci % cores;
        values.clear();
        values.extend(chunk_ids.iter().map(|&v| v as u64));
        bytes.clear();
        ctx.compress(&values, &mut bytes);
        let pos = core as u64 * region_cap + cursors[core];
        assert!(
            cursors[core] + bytes.len() as u64 <= region_cap,
            "cfrontier overflow"
        );
        w.img.write_bytes(w.cfrontier_addr + pos, &bytes);
        chunks.push(CFrontierChunk {
            pos,
            len: bytes.len() as u32,
            ids_lo,
            ids_hi: ids_lo + chunk_ids.len(),
        });
        cursors[core] += bytes.len() as u64;
        ids_lo += chunk_ids.len();
    }
    chunks
}

/// Bytes of the cfrontier region each core's share of a compressed
/// frontier may fill.
fn region_capacity(w: &Workload, cores: usize) -> u64 {
    layout::cfrontier_bytes(w.n()) / cores as u64
}

/// Timed frontier compression at end of iteration (UB/PHI + SpZip,
/// non-all-active): each core compresses its share of the next frontier
/// through its compressor (Fig. 13's single-stream pipeline).
fn compress_frontier_phase(
    machine: &mut Machine,
    w: &mut Workload,
    cfg: &SchemeConfig,
    ids: &[VertexId],
    cores: usize,
) -> Vec<CFrontierChunk> {
    let region_cap = region_capacity(w, cores);
    // Load each core's value compressor targeting its region.
    let pipes: Vec<pipelines::ValueCompPipe> = (0..cores)
        .map(|c| {
            pipelines::value_compressor(
                w,
                w.cfrontier_addr + c as u64 * region_cap,
                cfg.vertex_codec,
                cfg.sort_chunks,
                DataClass::Frontier,
            )
        })
        .collect();
    for (c, p) in pipes.iter().enumerate() {
        machine.load_compressor_program_for(c, &p.pipeline);
    }

    // Assign id chunks round-robin; generate events + functional runs.
    let mut chunks_meta = Vec::new();
    let mut works: Vec<Option<CoreWork>> = (0..cores).map(|_| None).collect();
    let mut engines: Vec<FuncEngine> = pipes
        .iter()
        .map(|p| FuncEngine::new(p.pipeline.clone()))
        .collect();
    let mut cursors = vec![0u64; cores];
    let mut ids_done = 0usize;
    for (ci, chunk_ids) in ids.chunks(CHUNK_VERTICES as usize).enumerate() {
        let core = ci % cores;
        let work = works[core].get_or_insert_with(CoreWork::default);
        let val_q = pipes[core].val_q;
        for &v in chunk_ids {
            engines[core].enqueue_value(val_q, v as u64, 4);
            work.events.push(Event::CompressorEnqueue {
                q: val_q,
                quarters: 4,
            });
        }
        engines[core].enqueue_marker(val_q, 0);
        work.events.push(Event::CompressorEnqueue {
            q: val_q,
            quarters: 4,
        });
        engines[core].run(&mut w.img);
        let len = engines[core].stream_cursor(1) - cursors[core];
        chunks_meta.push(CFrontierChunk {
            pos: core as u64 * region_cap + cursors[core],
            len: len as u32,
            ids_lo: ids_done,
            ids_hi: ids_done + chunk_ids.len(),
        });
        cursors[core] += len;
        assert!(cursors[core] <= region_cap, "cfrontier overflow");
        ids_done += chunk_ids.len();
    }
    for (core, work) in works.iter_mut().enumerate() {
        if let Some(wk) = work {
            wk.events.push(Event::CompressorDrain);
            wk.compressor_trace = Some(engines[core].take_firings());
        }
    }
    let mut handed = vec![false; cores];
    machine.run_phase(&mut |core: usize| {
        if handed[core] {
            return None;
        }
        handed[core] = true;
        works[core].take()
    });
    chunks_meta
}

// ======================================================================
// Traversal / binning phase
// ======================================================================

#[allow(clippy::too_many_arguments)]
fn run_traversal_phase(
    machine: &mut Machine,
    w: &mut Workload,
    alg: &mut dyn Algorithm,
    cfg: &SchemeConfig,
    frontier: &[VertexId],
    cfrontier_chunks: &[CFrontierChunk],
    binned: Option<&mut Vec<Vec<Vec<u64>>>>,
    activations: &mut Vec<VertexId>,
    phi: &mut Option<PhiUnit>,
) {
    let cores = machine.config().mem.cores;
    let all_active = alg.all_active();
    let frontier_compressed = !cfrontier_chunks.is_empty();

    // Build the chunk pool.
    let chunks: Vec<Chunk> = if all_active {
        chunk_ranges(w.n() as u32)
            .map(|(lo, hi)| Chunk::VertexRange { lo, hi })
            .collect()
    } else if frontier_compressed {
        cfrontier_chunks
            .iter()
            .map(|&c| Chunk::CFrontier(c))
            .collect()
    } else {
        chunk_ranges(frontier.len() as u32)
            .map(|(lo, hi)| Chunk::FrontierRange { lo, hi })
            .collect()
    };

    // SpZip: load traversal program; build per-core binning compressors.
    let trav = cfg.spzip.then(|| {
        pipelines::traversal(
            w,
            cfg,
            TraversalOpts {
                all_active,
                prefetch_dst: !cfg.bins_updates(),
                frontier_compressed,
                read_source: alg.reads_source(),
            },
        )
    });
    if let Some(t) = &trav {
        machine.load_fetcher_program(&t.pipeline);
    }
    let bin_pipes: Vec<pipelines::BinningCompPipe> = if cfg.spzip && cfg.bins_updates() {
        // Bins are per-iteration: reset the MQU tail pointers (the runtime
        // reallocates bins each binning phase, as in Listing 5).
        let bins = w.bins.as_ref().unwrap();
        let metas: Vec<u64> = (0..cores)
            .flat_map(|c| (0..bins.num_bins).map(move |b| (c, b)))
            .map(|(c, b)| bins.meta_addr(c, b))
            .collect();
        for m in metas {
            w.img.write_u64(m, 0);
        }
        (0..cores)
            .map(|c| pipelines::binning_compressor(w, cfg, c))
            .collect()
    } else {
        Vec::new()
    };
    for (c, p) in bin_pipes.iter().enumerate() {
        machine.load_compressor_program_for(c, &p.pipeline);
    }
    let mut comp_engines: Vec<Option<FuncEngine>> = (0..cores)
        .map(|c| {
            bin_pipes
                .get(c)
                .map(|p| FuncEngine::new(p.pipeline.clone()))
        })
        .collect();

    let in_next = vec![false; w.n()];
    let num_bins = w.bins.as_ref().map_or(0, |b| b.num_bins as usize);
    let fetcher = trav.as_ref().map(|t| FuncEngine::new(t.pipeline.clone()));
    let mut source = TraversalSource {
        w,
        alg,
        cfg,
        frontier,
        trav,
        fetcher,
        bin_pipes,
        comp_engines: &mut comp_engines,
        chunks,
        next_chunk: 0,
        binned,
        activations,
        in_next,
        nf_cursor: 0,
        phi,
        bin_cursors: vec![vec![0u64; num_bins]; cores],
        finalized: vec![false; cores],
        phi_drained: None,
        all_active,
    };
    machine.run_phase(&mut source);
    // Drain discipline (S004): the binning compressors were finalized with
    // closing markers before the phase ended, so no operator may still
    // buffer an open chunk.
    if machine.sanitizing() {
        use spzip_sim::sanitize::{Code, Violation};
        for (c, eng) in comp_engines.iter().enumerate() {
            let Some(e) = eng else { continue };
            for (op, buffered) in e.open_chunks() {
                machine.note_violation(Violation::new(
                    Code::UnterminatedChunk,
                    format!(
                        "compressor {c} operator {op} still buffers {buffered} item(s) \
                         after the binning phase drained"
                    ),
                    format!("compressor {c} at end of binning phase"),
                ));
            }
        }
    }
}

struct TraversalSource<'a> {
    w: &'a mut Workload,
    alg: &'a mut dyn Algorithm,
    cfg: &'a SchemeConfig,
    frontier: &'a [VertexId],
    trav: Option<pipelines::TraversalPipe>,
    /// The traversal pipeline's functional engine, reset for every chunk.
    fetcher: Option<FuncEngine>,
    bin_pipes: Vec<pipelines::BinningCompPipe>,
    comp_engines: &'a mut Vec<Option<FuncEngine>>,
    chunks: Vec<Chunk>,
    next_chunk: usize,
    binned: Option<&'a mut Vec<Vec<Vec<u64>>>>,
    activations: &'a mut Vec<VertexId>,
    in_next: Vec<bool>,
    nf_cursor: u64,
    phi: &'a mut Option<PhiUnit>,
    bin_cursors: Vec<Vec<u64>>,
    finalized: Vec<bool>,
    phi_drained: Option<Vec<PhiLine>>,
    all_active: bool,
}

impl TraversalSource<'_> {
    /// The sources covered by a chunk, as (frontier index, vertex).
    fn chunk_sources(&self, chunk: Chunk) -> Vec<(u32, VertexId)> {
        match chunk {
            Chunk::VertexRange { lo, hi } => (lo..hi).map(|v| (v, v)).collect(),
            Chunk::FrontierRange { lo, hi } => {
                (lo..hi).map(|i| (i, self.frontier[i as usize])).collect()
            }
            Chunk::CFrontier(c) => (c.ids_lo..c.ids_hi)
                .map(|i| (i as u32, self.frontier[i]))
                .collect(),
        }
    }

    /// Emits the per-edge action (apply / bin / PHI-push) for `dst`, then
    /// applies the update and activates `dst` for the next frontier.
    fn edge_action(&mut self, core: usize, ev: &mut Vec<Event>, dst: VertexId, payload: u32) {
        let w_dst_addr = self.w.dst_addr + dst as u64 * 4;
        match self.cfg.strategy {
            Strategy::Push => {
                ev.push(Event::atomic(w_dst_addr, 4, DataClass::DestinationVertex));
                ev.push(Event::Compute(cost::APPLY));
            }
            Strategy::Ub => {
                ev.push(Event::Compute(if self.cfg.spzip {
                    cost::SPZIP_PER_EDGE
                } else {
                    cost::BIN_UPDATE
                }));
                let bin = self.w.bins.as_ref().unwrap().bin_of(dst);
                self.bin_update(core, ev, bin, ((dst as u64) << 32) | payload as u64);
            }
            Strategy::Phi => {
                ev.push(Event::Compute(cost::PHI_PUSH));
                let alg = &*self.alg;
                let outcome = self
                    .phi
                    .as_mut()
                    .unwrap()
                    .push(w_dst_addr, payload, |a, b| alg.combine(a, b));
                if let PhiPush::Allocated {
                    evicted: Some(victim),
                } = outcome
                {
                    self.spill_line(core, ev, &victim);
                }
            }
        }
        let activated = self.alg.apply(self.w, dst, payload);
        if activated && !self.all_active && !self.in_next[dst as usize] {
            self.in_next[dst as usize] = true;
            self.activations.push(dst);
            if !self.cfg.bins_updates() {
                // Push writes the next frontier as it goes.
                ev.push(Event::store(
                    self.w.next_frontier_addr + self.nf_cursor * 4,
                    4,
                    DataClass::Frontier,
                ));
                self.nf_cursor += 1;
            }
        }
    }

    /// Spills one PHI line's coalesced updates to bins.
    fn spill_line(&mut self, core: usize, ev: &mut Vec<Event>, line: &PhiLine) {
        let base_dst = (line.line * 64).saturating_sub(self.w.dst_addr) / 4;
        for (slot, p) in line.updates() {
            let dst = base_dst as u32 + slot;
            let bins = self.w.bins.as_ref().unwrap();
            let bin = bins.bin_of(dst.min(self.w.n() as u32 - 1));
            self.bin_update(core, ev, bin, ((dst as u64) << 32) | p as u64);
        }
    }

    /// Writes one update to `core`'s bin `bin`: under SpZip the core
    /// enqueues the bin id and the update to its compressor, in software
    /// it streams the update to the raw bin.
    fn bin_update(&mut self, core: usize, ev: &mut Vec<Event>, bin: u32, update: u64) {
        if self.cfg.spzip {
            let q = self.bin_pipes[core].bin_q;
            let eng = self.comp_engines[core].as_mut().unwrap();
            eng.enqueue_value(q, bin as u64, 4);
            eng.enqueue_value(q, update, 8);
            ev.push(Event::CompressorEnqueue { q, quarters: 4 });
            ev.push(Event::CompressorEnqueue { q, quarters: 8 });
        } else {
            let cursor = &mut self.bin_cursors[core][bin as usize];
            let addr = self.w.bins.as_ref().unwrap().bin_addr(core, bin) + *cursor;
            ev.push(Event::stream_store(addr, 8, DataClass::Updates));
            *cursor += 8;
        }
        if let Some(binned) = self.binned.as_deref_mut() {
            binned[core][bin as usize].push(update);
        }
    }

    /// The final per-core batch: PHI drain shares, MQU close markers, and
    /// compressor drain.
    fn finalize_core(&mut self, core: usize) -> Option<CoreWork> {
        if self.finalized[core] {
            return None;
        }
        self.finalized[core] = true;
        if !self.cfg.bins_updates() {
            return None;
        }
        let mut ev = Vec::new();
        // PHI: drain the buffered lines once; each core spills every
        // `cores`-th of them.
        if self.cfg.strategy == Strategy::Phi {
            let drained = self
                .phi_drained
                .take()
                .unwrap_or_else(|| self.phi.as_mut().unwrap().drain());
            for line in drained.iter().skip(core).step_by(self.finalized.len()) {
                self.spill_line(core, &mut ev, line);
            }
            self.phi_drained = Some(drained);
        }
        if self.cfg.spzip {
            let q = self.bin_pipes[core].bin_q;
            let eng = self.comp_engines[core].as_mut().unwrap();
            for bin in 0..self.w.bins.as_ref().unwrap().num_bins {
                eng.enqueue_marker(q, bin);
                ev.push(Event::CompressorEnqueue { q, quarters: 4 });
            }
            ev.push(Event::CompressorDrain);
            return Some(CoreWork {
                events: ev,
                fetcher_trace: None,
                compressor_trace: Some(self.comp_firings(core)),
            });
        }
        (!ev.is_empty()).then(|| CoreWork {
            events: ev,
            ..Default::default()
        })
    }

    /// Runs `core`'s binning compressor over what it was fed so far and
    /// takes its firings.
    fn comp_firings(&mut self, core: usize) -> Vec<Vec<Firing>> {
        let eng = self.comp_engines[core].as_mut().unwrap();
        eng.run(&mut self.w.img);
        eng.take_firings()
    }

    /// Generates one software-traversal chunk.
    fn software_chunk(&mut self, core: usize, chunk: Chunk) -> CoreWork {
        let sources = self.chunk_sources(chunk);
        let mut ev = Vec::new();
        for (fidx, src) in sources {
            if !self.all_active {
                ev.push(Event::load(
                    self.w.frontier_addr + fidx as u64 * 4,
                    4,
                    DataClass::Frontier,
                ));
            }
            ev.push(Event::load(
                self.w.offsets_addr + src as u64 * 8,
                16,
                DataClass::AdjacencyMatrix,
            ));
            ev.push(Event::Compute(cost::SW_PER_SRC));
            if self.alg.reads_source() {
                ev.push(Event::load(
                    self.w.src_addr + src as u64 * 4,
                    4,
                    DataClass::SourceVertex,
                ));
            }
            let (elo, ehi) = self.w.g.row_range(src);
            for e in elo..ehi {
                let dst = self.w.g.neighbors_flat()[e];
                ev.push(Event::load(
                    self.w.neighbors_addr + e as u64 * 4,
                    4,
                    DataClass::AdjacencyMatrix,
                ));
                if let Some(values_addr) = self.w.values_addr {
                    ev.push(Event::load(
                        values_addr + e as u64 * 4,
                        4,
                        DataClass::AdjacencyMatrix,
                    ));
                }
                ev.push(Event::Compute(cost::SW_PER_EDGE));
                let payload = self.alg.payload(self.w, src, e);
                self.edge_action(core, &mut ev, dst, payload);
            }
        }
        CoreWork {
            events: ev,
            ..Default::default()
        }
    }

    /// Generates one SpZip-traversal chunk: functional pipeline run +
    /// event stream walking the dequeued data.
    fn spzip_chunk(&mut self, core: usize, chunk: Chunk) -> CoreWork {
        let trav = self.trav.as_ref().unwrap();
        let (neigh_q, contrib_q) = (trav.neigh_q, trav.contrib_q);
        // The chunk's index range, plus the source-data ranges when the
        // fetcher also streams source values.
        let mut inputs = Vec::new();
        match chunk {
            Chunk::VertexRange { lo, hi } => {
                // Offsets of rows (or row groups) glo..ghi need glo..=ghi
                // entries.
                let g = self.w.cadj.as_ref().map_or(1, |c| c.group_rows);
                debug_assert_eq!(lo % g, 0);
                inputs.extend([
                    (trav.in_q, (lo / g) as u64),
                    (trav.in_q, hi.div_ceil(g) as u64 + 1),
                ]);
                if let Some(src_in) = trav.src_in_q {
                    match &self.w.csrc {
                        Some(csrc) => {
                            let c = csrc.chunk_elems;
                            for ci in (lo / c) as usize..hi.div_ceil(c) as usize {
                                let off = csrc.chunk_addr(ci) - csrc.base;
                                let len = csrc.lens[ci] as u64;
                                inputs.extend([(src_in, off), (src_in, off + len)]);
                            }
                        }
                        None => inputs.extend([(src_in, lo as u64), (src_in, hi as u64)]),
                    }
                }
            }
            Chunk::FrontierRange { lo, hi } => {
                inputs.extend([(trav.in_q, lo as u64), (trav.in_q, hi as u64)]);
            }
            Chunk::CFrontier(c) => {
                inputs.extend([(trav.in_q, c.pos), (trav.in_q, c.pos + c.len as u64)]);
            }
        }
        let eng = self.fetcher.as_mut().unwrap();
        let mut ev = fetch_chunk(eng, &inputs, &mut self.w.img);
        let mut neighbors = eng.drain_output_costed(neigh_q).into_iter();
        let mut contribs = contrib_q.map(|q| (q, eng.drain_output_costed(q).into_iter()));
        let fetcher_trace = Some(eng.take_firings());

        for (_, src) in self.chunk_sources(chunk) {
            if let Some((q, items)) = contribs.as_mut() {
                // Pop markers until the source's payload value arrives.
                dequeue_value(&mut ev, *q, items);
            }
            ev.push(Event::Compute(cost::SPZIP_PER_SRC));
            let (elo, ehi) = self.w.g.row_range(src);
            for e in elo..ehi {
                // Markers separate rows / groups.
                let dst = dequeue_value(&mut ev, neigh_q, &mut neighbors)
                    .expect("neighbor stream ended early: pipeline bug")
                    as VertexId;
                debug_assert_eq!(
                    dst,
                    self.w.g.neighbors_flat()[e],
                    "decompressed neighbor mismatch"
                );
                ev.push(Event::Compute(cost::SPZIP_PER_EDGE));
                let payload = self.alg.payload(self.w, src, e);
                self.edge_action(core, &mut ev, dst, payload);
            }
        }
        // Trailing markers.
        for (q, items) in [(neigh_q, neighbors)].into_iter().chain(contribs) {
            ev.extend(items.map(|(_, cost)| Event::FetcherDequeue {
                q,
                quarters: cost as u16,
            }));
        }

        let compressor_trace = self.cfg.bins_updates().then(|| self.comp_firings(core));
        CoreWork {
            events: ev,
            fetcher_trace,
            compressor_trace,
        }
    }
}

impl WorkSource for TraversalSource<'_> {
    fn next(&mut self, core: usize) -> Option<CoreWork> {
        if self.next_chunk >= self.chunks.len() {
            return self.finalize_core(core);
        }
        let chunk = self.chunks[self.next_chunk];
        self.next_chunk += 1;
        Some(if self.cfg.spzip {
            self.spzip_chunk(core, chunk)
        } else {
            self.software_chunk(core, chunk)
        })
    }
}

// ======================================================================
// Accumulation phase (UB / PHI)
// ======================================================================

fn run_accumulation(
    machine: &mut Machine,
    w: &mut Workload,
    cfg: &SchemeConfig,
    cores: usize,
    binned: &[Vec<Vec<u64>>],
) {
    let num_bins = w.bins.as_ref().unwrap().num_bins;
    let accum_pipe = cfg.spzip.then(|| pipelines::accum_fetcher(w, cfg));
    if let Some(p) = &accum_pipe {
        machine.load_fetcher_program(&p.pipeline);
    }
    let mut fetcher = accum_pipe
        .as_ref()
        .map(|p| FuncEngine::new(p.pipeline.clone()));

    /// One unit of accumulation work.
    #[derive(Clone, Copy)]
    enum Item {
        /// Decompress one destination sub-chunk into the staging slice.
        Slice(usize),
        /// Apply one writer core's bin segment.
        Seg(usize),
    }

    let slice_vertices = w.bins.as_ref().unwrap().slice_vertices;
    let sub = DST_SUBCHUNK as usize;
    let subs_per_bin = (slice_vertices as usize).div_ceil(sub);
    for bin in 0..num_bins {
        // Vertex compression pays a slice decompress + recompress per bin;
        // that only amortizes when the bin is dense. Sparse bins (small
        // frontiers) apply directly to the raw array — the hybrid policy a
        // real runtime would use.
        let bin_updates: usize = (0..cores).map(|c| binned[c][bin as usize].len()).sum();
        if bin_updates == 0 {
            continue;
        }
        let use_slice = cfg.compress_vertex && bin_updates >= slice_vertices as usize / 8;
        let total_subs = w.cdst.as_ref().map_or(0, |c| c.lens.len());
        let sub_lo = bin as usize * subs_per_bin;
        let sub_hi = ((bin as usize + 1) * subs_per_bin).min(total_subs);

        let mut pool: Vec<Item> = Vec::new();
        if use_slice {
            pool.extend((sub_lo..sub_hi).map(Item::Slice));
        }
        pool.extend(
            (0..cores)
                .filter(|&c| !binned[c][bin as usize].is_empty())
                .map(Item::Seg),
        );
        pool.reverse(); // pop() hands slices out first

        machine.run_phase(&mut |_core: usize| {
            let (ev, fetcher_trace) = match pool.pop()? {
                Item::Slice(sc) => {
                    // Fetch + decompress one destination sub-chunk into
                    // staging.
                    let pipe = accum_pipe.as_ref().unwrap();
                    let (slice_in, sv) = (pipe.slice_in_q.unwrap(), pipe.slice_val_q.unwrap());
                    let cdst = w.cdst.as_ref().unwrap();
                    let off = cdst.chunk_addr(sc) - cdst.base;
                    let inputs = [(slice_in, off), (slice_in, off + cdst.lens[sc] as u64)];
                    let eng = fetcher.as_mut().unwrap();
                    let mut ev = fetch_chunk(eng, &inputs, &mut w.img);
                    let stage_base = w.staging_addr + (sc - sub_lo) as u64 * sub as u64 * 4;
                    stage_slice(&mut ev, sv, eng.drain_output_costed(sv), stage_base);
                    (ev, Some(eng.take_firings()))
                }
                Item::Seg(writer) => {
                    let updates = &binned[writer][bin as usize];
                    let bins = w.bins.as_ref().unwrap();
                    if let Some(pipe) = &accum_pipe {
                        // Fetch + decompress this writer's bin segment.
                        let seg_off = bins.bin_addr(writer, bin) - bins.bins_base;
                        let tail = w.img.read_u64(bins.meta_addr(writer, bin));
                        let inputs = [(pipe.bin_in_q, seg_off), (pipe.bin_in_q, seg_off + tail)];
                        let eng = fetcher.as_mut().unwrap();
                        let mut ev = fetch_chunk(eng, &inputs, &mut w.img);
                        let out = eng.drain_output_costed(pipe.upd_q);
                        for &(_, qcost) in &out {
                            ev.push(Event::FetcherDequeue {
                                q: pipe.upd_q,
                                quarters: qcost as u16,
                            });
                            ev.push(Event::Compute(cost::ACCUM_UPDATE));
                        }
                        let decoded = out.iter().filter_map(|&(item, _)| match item {
                            QueueItem::Value(v) => Some(v),
                            QueueItem::Marker(_) => None,
                        });
                        // Sorted chunks permute updates; counts must match.
                        debug_assert_eq!(
                            decoded.clone().count(),
                            updates.len(),
                            "bin decode count"
                        );
                        apply_events(&mut ev, w, bin, use_slice, decoded);
                        (ev, Some(eng.take_firings()))
                    } else {
                        // Software accumulation: stream the raw bin.
                        let base = bins.bin_addr(writer, bin);
                        let mut ev = Vec::new();
                        for (i, &u) in updates.iter().enumerate() {
                            ev.push(Event::load(base + i as u64 * 8, 8, DataClass::Updates));
                            ev.push(Event::Compute(cost::ACCUM_UPDATE));
                            apply_events(&mut ev, w, bin, false, [u]);
                        }
                        (ev, None)
                    }
                }
            };
            Some(CoreWork {
                events: ev,
                fetcher_trace,
                compressor_trace: None,
            })
        });

        // Write the slice back compressed (vertex compression). The
        // recompression itself is host-side; the stores model the
        // compressed write traffic, parallel across sub-chunks.
        if use_slice {
            let writes: Vec<(u64, u32)> = (sub_lo..sub_hi)
                .map(|sc| {
                    let len = w.recompress_dst_chunk(cfg.vertex_codec, sc);
                    (w.cdst.as_ref().unwrap().chunk_addr(sc), len)
                })
                .collect();
            let mut writes = writes.into_iter();
            machine.run_phase(&mut |_core: usize| {
                let (addr, len) = writes.next()?;
                let mut ev = vec![Event::Compute(cost::VERTEX_OP)];
                burst_stores(&mut ev, addr, len, DataClass::DestinationVertex);
                Some(CoreWork {
                    events: ev,
                    ..Default::default()
                })
            });
        } else if cfg.compress_vertex {
            // The raw array changed; refresh the compressed stream
            // host-side so later dense bins read fresh data (the sparse
            // path writes through uncompressed — its store events above
            // carry the traffic).
            for sc in sub_lo..sub_hi {
                w.recompress_dst_chunk(cfg.vertex_codec, sc);
            }
        }
    }
}

/// Emits the events that apply updates to destination data.
fn apply_events(
    ev: &mut Vec<Event>,
    w: &Workload,
    bin: u32,
    use_slice: bool,
    updates: impl IntoIterator<Item = u64>,
) {
    let bins = w.bins.as_ref().unwrap();
    let slice_lo = bin as u64 * bins.slice_vertices as u64;
    for u in updates {
        let dst = u >> 32;
        ev.push(Event::Compute(cost::APPLY));
        if use_slice {
            // The slice lives decompressed in the staging buffer.
            let off = (dst.saturating_sub(slice_lo) % bins.slice_vertices as u64) * 4;
            ev.push(Event::store(
                w.staging_addr + off,
                4,
                DataClass::DestinationVertex,
            ));
        } else {
            ev.push(Event::store(
                w.dst_addr + dst * 4,
                4,
                DataClass::DestinationVertex,
            ));
        }
    }
}

// ======================================================================
// Vertex phase (e.g. PR contribution recompute)
// ======================================================================

fn run_vertex_phase(machine: &mut Machine, w: &mut Workload, cfg: &SchemeConfig) {
    if cfg.compress_vertex && w.cdst.is_some() && w.csrc.is_some() {
        // Compressed: stream scores through the fetcher, write contribs as
        // compressed chunks (recompressed host-side; the stores model the
        // compressed write traffic).
        let pipe = pipelines::accum_fetcher(w, cfg);
        machine.load_fetcher_program(&pipe.pipeline);
        let (slice_in, sv) = (pipe.slice_in_q.unwrap(), pipe.slice_val_q.unwrap());
        let mut eng = FuncEngine::new(pipe.pipeline.clone());
        let mut slices = 0..w.cdst.as_ref().unwrap().lens.len();
        // Recompress all source chunks now (end_iteration already updated
        // the raw array).
        for i in 0..w.csrc.as_ref().unwrap().lens.len() {
            w.recompress_src_chunk(cfg.vertex_codec, i);
        }
        machine.run_phase(&mut |_core: usize| {
            let b = slices.next()?;
            let cdst = w.cdst.as_ref().unwrap();
            let off = cdst.chunk_addr(b) - cdst.base;
            let inputs = [(slice_in, off), (slice_in, off + cdst.lens[b] as u64)];
            let mut ev = fetch_chunk(&mut eng, &inputs, &mut w.img);
            dequeue_paired(&mut ev, sv, eng.drain_output_costed(sv), |ev, n| {
                if n > 0 {
                    ev.push(Event::Compute(cost::VERTEX_OP));
                }
            });
            // Compressed contribution writes covering this sub-chunk.
            let csrc = w.csrc.as_ref().unwrap();
            let chunk = csrc.chunk_elems as usize;
            let sub_v = DST_SUBCHUNK as usize;
            let lo_chunk = b * sub_v / chunk;
            let hi_chunk = (((b + 1) * sub_v).min(w.n())).div_ceil(chunk);
            for ci in lo_chunk..hi_chunk.min(csrc.lens.len()) {
                burst_stores(
                    &mut ev,
                    csrc.chunk_addr(ci),
                    csrc.lens[ci],
                    DataClass::SourceVertex,
                );
            }
            Some(CoreWork {
                events: ev,
                fetcher_trace: Some(eng.take_firings()),
                compressor_trace: None,
            })
        });
    } else {
        // Software: chunked loads + stores over the vertex arrays.
        let mut chunks = chunk_ranges(w.n() as u32);
        machine.run_phase(&mut |_core: usize| {
            let (lo, hi) = chunks.next()?;
            let mut ev = Vec::new();
            for v in lo..hi {
                ev.push(Event::load(
                    w.dst_addr + v as u64 * 4,
                    4,
                    DataClass::DestinationVertex,
                ));
                ev.push(Event::Compute(cost::VERTEX_OP));
                ev.push(Event::store(
                    w.src_addr + v as u64 * 4,
                    4,
                    DataClass::SourceVertex,
                ));
            }
            Some(CoreWork {
                events: ev,
                ..Default::default()
            })
        });
    }
}

// ======================================================================
// Core-side emitters shared by the phases
// ======================================================================

/// `0..n` cut into consecutive `CHUNK_VERTICES`-sized ranges, the unit of
/// work a core takes at a time.
fn chunk_ranges(n: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..n)
        .step_by(CHUNK_VERTICES as usize)
        .map(move |lo| (lo, (lo + CHUNK_VERTICES).min(n)))
}

/// Runs one fetcher chunk functionally: `eng` is reset, fed the chunk's
/// 8-byte `inputs` and run against `img`, and then holds the chunk's
/// outputs and firings. Returns the core's enqueue events.
fn fetch_chunk(
    eng: &mut FuncEngine,
    inputs: &[(QueueId, u64)],
    img: &mut MemoryImage,
) -> Vec<Event> {
    eng.reset();
    for &(q, value) in inputs {
        eng.enqueue_value(q, value, 8);
    }
    eng.run(img);
    eng.enqueue_log()
        .iter()
        .map(|&(q, quarters)| Event::FetcherEnqueue { q, quarters })
        .collect()
}

/// Dequeues fetcher output `items` from queue `q` one by one, up to and
/// including the next value, which it returns.
fn dequeue_value(
    ev: &mut Vec<Event>,
    q: QueueId,
    items: &mut impl Iterator<Item = (QueueItem, u8)>,
) -> Option<u64> {
    for (item, cost) in items {
        ev.push(Event::FetcherDequeue {
            q,
            quarters: cost as u16,
        });
        if let QueueItem::Value(v) = item {
            return Some(v);
        }
    }
    None
}

/// Dequeues a decompressed stream of 4-byte values from fetcher queue `q`
/// as a core moves it: one 8-byte dequeue per pair of values, an odd value
/// alone before a marker or at the end, and each marker on its own.
/// `hook(ev, n)` runs after each dequeue of `n` values, and with `n = 0`
/// before each marker and once at the end of the stream.
fn dequeue_paired(
    ev: &mut Vec<Event>,
    q: QueueId,
    items: impl IntoIterator<Item = (QueueItem, u8)>,
    mut hook: impl FnMut(&mut Vec<Event>, u16),
) {
    let mut odd = false; // a value awaiting its pair
    for (item, cost) in items {
        if item.is_marker() {
            if odd {
                ev.push(Event::FetcherDequeue { q, quarters: 4 });
                hook(ev, 1);
                odd = false;
            }
            hook(ev, 0);
            ev.push(Event::FetcherDequeue {
                q,
                quarters: cost as u16,
            });
        } else if odd {
            ev.push(Event::FetcherDequeue { q, quarters: 8 });
            hook(ev, 2);
            odd = false;
        } else {
            odd = true;
        }
    }
    if odd {
        ev.push(Event::FetcherDequeue { q, quarters: 4 });
        hook(ev, 1);
    }
    hook(ev, 0);
}

/// Dequeues a decompressed destination sub-chunk (see [`dequeue_paired`])
/// into the staging buffer at `stage_base`. Staging writes are
/// line-batched: one streaming store per 16 values, and one for the rest
/// before each marker and at the end. These wide moves keep vertex
/// compression's bookkeeping cheaper than its traffic savings.
fn stage_slice(
    ev: &mut Vec<Event>,
    q: QueueId,
    items: impl IntoIterator<Item = (QueueItem, u8)>,
    stage_base: u64,
) {
    let (mut stored, mut pending) = (0u64, 0u64);
    dequeue_paired(ev, q, items, |ev, n| {
        pending += n as u64;
        if n == 0 || pending == 16 {
            let addr = stage_base + stored * 4;
            burst_stores(ev, addr, pending as u32 * 4, DataClass::DestinationVertex);
            stored += pending;
            pending = 0;
        }
    });
}

/// Streams `len` bytes to `addr` as streaming stores of at most one line
/// (64 B) each.
fn burst_stores(ev: &mut Vec<Event>, addr: u64, len: u32, class: DataClass) {
    for off in (0..len).step_by(64) {
        ev.push(Event::stream_store(
            addr + off as u64,
            (len - off).min(64),
            class,
        ));
    }
}

#[cfg(test)]
mod tests;
