//! The codec × stream-kind × workload characterization sweep behind the
//! `codec-sweep` binary.
//!
//! Where `codec-bench` measures *kernel throughput* and `dcl-perf
//! --suggest` advises on *one pipeline*, this sweep characterizes the
//! selection landscape itself: for every workload stream the engines
//! actually see — the four synthetic `codec-bench` stream kinds plus real
//! adjacency streams from the cross-check gate graphs — it prices every
//! codec with the same calibrated model the suggestion pass uses, and
//! marks the winner. The rendered matrix is the "why" behind each A001
//! advisory: it shows how the winner shifts with value distribution
//! (clustered vs scattered ids), element width (update tuples), and
//! kernel rate calibration.

use spzip_compress::model::{
    codec_trajectory_name, predicted_bytes_per_elem, RateTable, StreamProfile,
};
use spzip_compress::CodecKind;
use spzip_core::dcl::{OperatorKind, Pipeline, PipelineBuilder, RangeInput};
use spzip_core::perf::{analyze, PerfInput};
use spzip_graph::gen::{community, grid3d, CommunityParams};
use spzip_mem::DataClass;
use std::fmt::Write as _;

/// One workload stream of the sweep: a name, its values, and the decoded
/// element width a pipeline would carry them at.
pub struct SweepStream {
    /// Stream-kind × workload label (e.g. `"clustered_ids"`,
    /// `"community_adj"`).
    pub name: &'static str,
    /// The raw values.
    pub values: Vec<u64>,
    /// Decoded element width in bytes.
    pub elem_bytes: u8,
}

/// The sweep's workload streams: the `codec-bench` stream kinds (shared
/// input shapes, so the two tools characterize the same data) plus the
/// real neighbor streams of the cross-check gate workloads.
pub fn sweep_streams() -> Vec<SweepStream> {
    let mut out: Vec<SweepStream> = crate::codec_bench::builtin_streams()
        .into_iter()
        .map(|(name, values)| SweepStream {
            name,
            elem_bytes: if name == "update_tuples" { 8 } else { 4 },
            values,
        })
        .collect();
    let g = community(&CommunityParams::web_crawl(4096, 8), 17);
    out.push(SweepStream {
        name: "community_adj",
        values: g.neighbors_flat().iter().map(|&v| u64::from(v)).collect(),
        elem_bytes: 4,
    });
    let m = grid3d(16, 1, 3);
    out.push(SweepStream {
        name: "stencil_adj",
        values: m.neighbors_flat().iter().map(|&v| u64::from(v)).collect(),
        elem_bytes: 4,
    });
    out
}

/// One cell of the matrix: a codec priced on one stream.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// The codec.
    pub codec: CodecKind,
    /// Model-predicted stored bytes per decoded element.
    pub bytes_per_elem: f64,
    /// Model-predicted steady-state cycles per delivered element for a
    /// fetch→decompress pipeline carrying this stream.
    pub cycles_per_elem: f64,
}

/// One row: a stream with every codec priced, winner first by
/// `cycles_per_elem` (ties broken by codec order, deterministically).
pub struct SweepRow {
    /// The stream's label.
    pub stream: &'static str,
    /// Decoded element width.
    pub elem_bytes: u8,
    /// One cell per codec, in [`CodecKind::all`] order.
    pub cells: Vec<SweepCell>,
}

impl SweepRow {
    /// The codec the selection pass would pick on this stream.
    pub fn winner(&self) -> CodecKind {
        self.cells
            .iter()
            .min_by(|a, b| a.cycles_per_elem.total_cmp(&b.cycles_per_elem))
            .map_or(CodecKind::None, |c| c.codec)
    }
}

/// The fetch→decompress pricing pipeline for one codec and width — the
/// minimal compressed-traversal shape every builtin reduces to.
fn pricing_pipeline(codec: CodecKind, elem_bytes: u8) -> Pipeline {
    let mut b = PipelineBuilder::new();
    let input = b.queue(16);
    let bytes = b.queue(32);
    let vals = b.queue(32);
    b.operator(
        OperatorKind::RangeFetch {
            base: 0x1000,
            idx_bytes: 8,
            elem_bytes: 1,
            input: RangeInput::Pairs,
            marker: Some(1),
            class: DataClass::AdjacencyMatrix,
        },
        input,
        vec![bytes],
    );
    b.operator(
        OperatorKind::Decompress { codec, elem_bytes },
        bytes,
        vec![vals],
    );
    b.build().expect("pricing pipeline validates")
}

/// Runs the sweep: every stream × every codec, priced under `rates`.
pub fn sweep(rates: &RateTable) -> Vec<SweepRow> {
    sweep_streams()
        .into_iter()
        .map(|s| {
            let profile = StreamProfile::from_values(&s.values, s.elem_bytes, 32, false);
            let cells = CodecKind::all()
                .into_iter()
                .map(|codec| {
                    let p = pricing_pipeline(codec, s.elem_bytes);
                    let mut input = PerfInput::new(&p);
                    input.rates = rates.clone();
                    input.profiles.insert(1, profile);
                    let report = analyze(&input);
                    SweepCell {
                        codec,
                        bytes_per_elem: predicted_bytes_per_elem(codec, &profile),
                        cycles_per_elem: report.cycles_per_unit() / report.delivered_elems.max(1.0),
                    }
                })
                .collect();
            SweepRow {
                stream: s.name,
                elem_bytes: s.elem_bytes,
                cells,
            }
        })
        .collect()
}

/// Renders the matrix: one row per stream, `bytes/elem @ cycles/elem`
/// per codec, the winner starred.
pub fn render(rows: &[SweepRow], calibration: &str) -> String {
    let mut out = format!("codec x stream sweep (calibration: {calibration})\n");
    let _ = write!(out, "{:<16} {:>2}", "stream", "w");
    for codec in CodecKind::all() {
        let _ = write!(out, " {:>16}", codec_trajectory_name(codec, false));
    }
    out.push('\n');
    for row in rows {
        let winner = row.winner();
        let _ = write!(out, "{:<16} {:>2}", row.stream, row.elem_bytes);
        for cell in &row.cells {
            let star = if cell.codec == winner { "*" } else { " " };
            let _ = write!(
                out,
                " {:>6.2}B@{:>7.2}c{star}",
                cell.bytes_per_elem, cell.cycles_per_elem
            );
        }
        out.push('\n');
    }
    out
}

/// Renders the matrix as JSON (stable keys, append-only).
pub fn render_json(rows: &[SweepRow], calibration: &str) -> String {
    let mut out = format!(
        "{{\"calibration\":\"{}\",\"rows\":[",
        spzip_core::lint::json_escape(calibration)
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"stream\":\"{}\",\"elem_bytes\":{},\"winner\":\"{}\",\"cells\":[",
            row.stream,
            row.elem_bytes,
            codec_trajectory_name(row.winner(), false)
        );
        for (j, cell) in row.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"codec\":\"{}\",\"bytes_per_elem\":{:.3},\"cycles_per_elem\":{:.3}}}",
                codec_trajectory_name(cell.codec, false),
                cell.bytes_per_elem,
                cell.cycles_per_elem
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_stream_and_codec() {
        let rows = sweep(&RateTable::nominal());
        assert_eq!(rows.len(), sweep_streams().len());
        for row in &rows {
            assert_eq!(row.cells.len(), CodecKind::all().len());
            for cell in &row.cells {
                assert!(cell.bytes_per_elem > 0.0, "{}", row.stream);
                assert!(cell.cycles_per_elem > 0.0, "{}", row.stream);
            }
        }
    }

    #[test]
    fn winners_respond_to_the_stream() {
        // Identity stores degree counts at full width while delta/rle
        // shrink them dramatically; no codec should win every row of a
        // nominal sweep by accident of the harness.
        let rows = sweep(&RateTable::nominal());
        let counts = rows
            .iter()
            .find(|r| r.stream == "degree_counts")
            .expect("codec-bench stream kinds are swept");
        let identity = counts
            .cells
            .iter()
            .find(|c| c.codec == CodecKind::None)
            .unwrap();
        let winner_cell = counts
            .cells
            .iter()
            .find(|c| c.codec == counts.winner())
            .unwrap();
        assert!(winner_cell.bytes_per_elem < identity.bytes_per_elem);
    }

    #[test]
    fn calibration_can_flip_a_winner() {
        // Severely handicapping every real codec's rate drives the
        // winner toward identity on at least one stream — the sweep's
        // whole point is showing rate/ratio trade-offs move the answer.
        let nominal_rows = sweep(&RateTable::nominal());
        let mut rates = RateTable::nominal();
        use spzip_compress::model::CodecRates;
        for kind in CodecKind::all() {
            if kind != CodecKind::None {
                rates.set(
                    kind,
                    CodecRates {
                        decode_gbps: 0.01,
                        encode_gbps: 0.01,
                    },
                );
            }
        }
        rates.set(
            CodecKind::None,
            CodecRates {
                decode_gbps: 10.0,
                encode_gbps: 10.0,
            },
        );
        let skewed_rows = sweep(&rates);
        let flipped = nominal_rows
            .iter()
            .zip(&skewed_rows)
            .any(|(a, b)| a.winner() != b.winner());
        assert!(flipped, "a 1000x rate handicap must move some winner");
    }

    #[test]
    fn renders_are_complete() {
        let rows = sweep(&RateTable::nominal());
        let text = render(&rows, "nominal");
        assert!(text.contains("community_adj"), "{text}");
        assert!(text.contains('*'), "{text}");
        let json = render_json(&rows, "nominal");
        assert!(json.contains("\"winner\":"), "{json}");
        assert!(json.contains("\"stencil_adj\""), "{json}");
        assert!(json.ends_with("]}\n"), "{json}");
    }
}
