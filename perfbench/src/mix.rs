//! What the workloads ask: sampler families, schemes, derived seeds, and
//! the request lines sent to `samplecfd`.

use samplecf_sampling::{Allocation, SamplerKind, StrataMode};

/// The table every workload runs on (the shape `samplecf gen --rows
/// 1000000 --distinct 10000` writes: one 24-byte CHAR key of 4–20 used
/// bytes on 8 KiB pages).
pub const TABLE_ROWS: usize = 1_000_000;
pub const TABLE_DISTINCT: usize = 10_000;
pub const TABLE_NAME: &str = "t";

pub const SCHEMES: [&str; 3] = ["null-suppression", "dictionary-global", "prefix"];
pub const NS: &str = "null-suppression";

/// Strata of the stratified family (equi-depth, proportional allocation).
pub const STRATA: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    Uniform,
    Block,
    Stratified,
}

pub const FAMILIES: [Family; 3] = [Family::Uniform, Family::Block, Family::Stratified];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Block => "block",
            Family::Stratified => "stratified",
        }
    }

    pub fn kind(self, fraction: f64) -> SamplerKind {
        match self {
            Family::Uniform => SamplerKind::UniformWithReplacement(fraction),
            Family::Block => SamplerKind::Block(fraction),
            Family::Stratified => SamplerKind::Stratified {
                fraction,
                strata: STRATA,
                alloc: Allocation::by_name("prop").expect("prop is an allocation"),
                mode: StrataMode::EquiDepth,
            },
        }
    }

    /// The sampler fields of a request for this family.
    fn wire(self, fraction: f64) -> String {
        let extra = if self == Family::Stratified {
            format!(r#","strata":{STRATA},"strata_mode":"equi-depth""#)
        } else {
            String::new()
        };
        format!(
            r#""sampler":"{}","fraction":{fraction}{extra}"#,
            self.name()
        )
    }
}

/// A sample group: what the daemon caches one sample for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Group {
    pub family: Family,
    pub fraction: f64,
    pub seed: u64,
}

/// One request of a daemon workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Estimate { group: Group, scheme: &'static str },
    Advise { group: Group, candidates: usize },
    Stats,
    Info,
}

impl Request {
    pub fn line(&self) -> String {
        match self {
            Request::Estimate { group, scheme } => format!(
                r#"{{"op":"estimate","table":"{TABLE_NAME}",{},"seed":{},"scheme":"{scheme}"}}"#,
                group.family.wire(group.fraction),
                group.seed
            ),
            Request::Advise { group, candidates } => {
                let list: Vec<String> = (0..*candidates)
                    .map(|i| {
                        format!(
                            r#"{{"index":"ix{i}","scheme":"{}"}}"#,
                            SCHEMES[i % SCHEMES.len()]
                        )
                    })
                    .collect();
                format!(
                    r#"{{"op":"advise","table":"{TABLE_NAME}",{},"seed":{},"candidates":[{}]}}"#,
                    group.family.wire(group.fraction),
                    group.seed,
                    list.join(",")
                )
            }
            Request::Stats => r#"{"op":"stats"}"#.to_string(),
            Request::Info => format!(r#"{{"op":"info","table":"{TABLE_NAME}"}}"#),
        }
    }

    pub fn group(&self) -> Option<Group> {
        match self {
            Request::Estimate { group, .. } | Request::Advise { group, .. } => Some(*group),
            _ => None,
        }
    }
}

/// A seed derived from the workload seed and a stream position (one
/// SplitMix64 step); small, so it survives the JSON number round trip
/// exactly.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 20
}
