//! Execution strategies (Sec. II-C/II-D) and their configuration knobs.

use spzip_compress::CodecKind;
use std::fmt;

/// The base execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Push (source-stationary): scatter updates directly to destination
    /// vertex data with atomics.
    Push,
    /// Update Batching (propagation blocking): bin updates, then apply
    /// bin by bin.
    Ub,
    /// PHI: coalesce commutative updates in the LLC, binning lazily on
    /// eviction.
    Phi,
}

impl Strategy {
    /// All three strategies.
    pub fn all() -> [Strategy; 3] {
        [Strategy::Push, Strategy::Ub, Strategy::Phi]
    }
}

/// A fully-specified scheme: strategy, with or without SpZip, plus the
/// per-structure compression switches used by the ablations (Fig. 19–20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeConfig {
    /// The base strategy.
    pub strategy: Strategy,
    /// Whether SpZip engines run traversal/(de)compression.
    pub spzip: bool,
    /// Compress the adjacency matrix (Fig. 19 "+Adjacency Matrix").
    pub compress_adjacency: bool,
    /// Compress update bins (Fig. 19 "+Bin").
    pub compress_updates: bool,
    /// Compress vertex data (Fig. 19 "+Vertex"; also compresses the
    /// frontier of non-all-active algorithms).
    pub compress_vertex: bool,
    /// Sort order-insensitive chunks before compression (Sec. III-C).
    pub sort_chunks: bool,
    /// Codec for adjacency neighbor sets.
    pub adjacency_codec: CodecKind,
    /// Codec for update bins.
    pub update_codec: CodecKind,
    /// Codec for vertex data and frontiers.
    pub vertex_codec: CodecKind,
}

impl SchemeConfig {
    /// The software-only baseline of `strategy`.
    pub fn software(strategy: Strategy) -> Self {
        SchemeConfig {
            strategy,
            spzip: false,
            compress_adjacency: false,
            compress_updates: false,
            compress_vertex: false,
            sort_chunks: false,
            adjacency_codec: CodecKind::Delta,
            update_codec: CodecKind::Bpc64,
            vertex_codec: CodecKind::Bpc32,
        }
    }

    /// `strategy`+SpZip as evaluated in the paper: Push compresses the
    /// adjacency matrix only; UB and PHI compress all structures.
    pub fn with_spzip(strategy: Strategy) -> Self {
        let all = strategy != Strategy::Push;
        SchemeConfig {
            spzip: true,
            compress_adjacency: true,
            compress_updates: all,
            compress_vertex: all,
            sort_chunks: all,
            ..Self::software(strategy)
        }
    }

    /// The decoupled-fetching-only ablation (Fig. 20): SpZip engines run,
    /// nothing is compressed.
    pub fn decoupled_only(strategy: Strategy) -> Self {
        SchemeConfig {
            spzip: true,
            compress_adjacency: false,
            compress_updates: false,
            compress_vertex: false,
            sort_chunks: false,
            ..Self::software(strategy)
        }
    }

    /// Whether any SpZip engine is active.
    pub fn uses_engines(&self) -> bool {
        self.spzip
    }

    /// Whether the strategy buffers updates in bins (UB or PHI).
    pub fn bins_updates(&self) -> bool {
        matches!(self.strategy, Strategy::Ub | Strategy::Phi)
    }

    /// The codec update bins are stored in ([`CodecKind::None`] when they
    /// are not compressed).
    pub fn bin_codec(&self) -> CodecKind {
        if self.compress_updates {
            self.update_codec
        } else {
            CodecKind::None
        }
    }

    /// A short name: the [`Scheme`] with this strategy and engine switch,
    /// followed by every setting that differs from that scheme's
    /// (`PHI+SpZip-bins-vertex-sort`, `UB+SpZip,bins=bpc32`). Equals the
    /// scheme's name exactly when the configuration is a named scheme.
    pub fn label(&self) -> String {
        let base = Scheme::all()
            .into_iter()
            .find(|s| s.config().strategy == self.strategy && s.config().spzip == self.spzip)
            .expect("every strategy has a software and a SpZip scheme");
        let b = base.config();
        let mut out = base.to_string();
        for (name, on, base_on) in [
            ("adj", self.compress_adjacency, b.compress_adjacency),
            ("bins", self.compress_updates, b.compress_updates),
            ("vertex", self.compress_vertex, b.compress_vertex),
            ("sort", self.sort_chunks, b.sort_chunks),
        ] {
            if on != base_on {
                out += &format!("{}{name}", if on { '+' } else { '-' });
            }
        }
        for (name, codec, base_codec) in [
            ("adj", self.adjacency_codec, b.adjacency_codec),
            ("bins", self.update_codec, b.update_codec),
            ("vertex", self.vertex_codec, b.vertex_codec),
        ] {
            if codec != base_codec {
                out += &format!(",{name}={codec}");
            }
        }
        out
    }
}

/// The six named schemes of the main results (Fig. 15's legend order:
/// S, T, U, C, H, Z).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Software Push.
    Push,
    /// Push + SpZip.
    PushSpzip,
    /// Software Update Batching.
    Ub,
    /// UB + SpZip.
    UbSpzip,
    /// PHI.
    Phi,
    /// PHI + SpZip.
    PhiSpzip,
}

impl Scheme {
    /// All six schemes in figure order.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::Push,
            Scheme::PushSpzip,
            Scheme::Ub,
            Scheme::UbSpzip,
            Scheme::Phi,
            Scheme::PhiSpzip,
        ]
    }

    /// The paper's one-letter code (Fig. 15 x-axis).
    pub fn code(&self) -> char {
        match self {
            Scheme::Push => 'S',
            Scheme::PushSpzip => 'T',
            Scheme::Ub => 'U',
            Scheme::UbSpzip => 'C',
            Scheme::Phi => 'H',
            Scheme::PhiSpzip => 'Z',
        }
    }

    /// The scheme's full configuration.
    pub fn config(&self) -> SchemeConfig {
        match self {
            Scheme::Push => SchemeConfig::software(Strategy::Push),
            Scheme::PushSpzip => SchemeConfig::with_spzip(Strategy::Push),
            Scheme::Ub => SchemeConfig::software(Strategy::Ub),
            Scheme::UbSpzip => SchemeConfig::with_spzip(Strategy::Ub),
            Scheme::Phi => SchemeConfig::software(Strategy::Phi),
            Scheme::PhiSpzip => SchemeConfig::with_spzip(Strategy::Phi),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Push => "Push",
            Scheme::PushSpzip => "Push+SpZip",
            Scheme::Ub => "UB",
            Scheme::UbSpzip => "UB+SpZip",
            Scheme::Phi => "PHI",
            Scheme::PhiSpzip => "PHI+SpZip",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_compression_policy() {
        // "For Push, we compress the adjacency matrix, but not vertex
        // data; for UB and PHI, we compress all structures."
        let push = Scheme::PushSpzip.config();
        assert!(push.compress_adjacency && !push.compress_updates && !push.compress_vertex);
        for s in [Scheme::UbSpzip, Scheme::PhiSpzip] {
            let c = s.config();
            assert!(c.compress_adjacency && c.compress_updates && c.compress_vertex);
        }
    }

    #[test]
    fn labels_name_the_scheme_and_what_differs() {
        for s in Scheme::all() {
            assert_eq!(s.config().label(), s.to_string());
        }
        let mut c = SchemeConfig::decoupled_only(Strategy::Phi);
        c.sort_chunks = true;
        c.update_codec = CodecKind::Rle;
        assert_eq!(c.label(), "PHI+SpZip-adj-bins-vertex,bins=rle");
    }

    #[test]
    fn software_schemes_have_no_engines() {
        for s in [Scheme::Push, Scheme::Ub, Scheme::Phi] {
            assert!(!s.config().uses_engines());
        }
        for s in [Scheme::PushSpzip, Scheme::UbSpzip, Scheme::PhiSpzip] {
            assert!(s.config().uses_engines());
        }
    }

    #[test]
    fn decoupled_only_disables_compression() {
        let c = SchemeConfig::decoupled_only(Strategy::Phi);
        assert!(c.spzip);
        assert!(!c.compress_adjacency && !c.compress_updates && !c.compress_vertex);
    }

    #[test]
    fn codes_match_fig15_legend() {
        let codes: String = Scheme::all().iter().map(|s| s.code()).collect();
        assert_eq!(codes, "STUCHZ");
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::PhiSpzip.to_string(), "PHI+SpZip");
        assert_eq!(Scheme::Ub.to_string(), "UB");
    }
}
