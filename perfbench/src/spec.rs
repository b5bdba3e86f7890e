//! The benchmark's two data files: `BENCHMARK.json` (workloads, metrics
//! and their regression bounds) and `perfbench/record.json` (per-cell run
//! digests and the baseline medians `--check` compares against).

use crate::json::Json;
use std::collections::BTreeMap;

/// Largest `BENCHMARK.json` accepted.
pub const MAX_SPEC_BYTES: usize = 64 * 1024;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The checked contents of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// End-to-end metrics (each with a bound).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (no bounds).
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
}

fn string_field(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    field(obj, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: {key:?} is not a string"))
}

fn metrics(root: &Json, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let list = field(root, key, "BENCHMARK.json")?
        .as_arr()
        .ok_or_else(|| format!("{key:?} is not an array"))?;
    let mut out: Vec<MetricSpec> = Vec::new();
    for (i, m) in list.iter().enumerate() {
        let ctx = format!("{key}[{i}]");
        let name = string_field(m, "name", &ctx)?;
        let unit = string_field(m, "unit", &ctx)?;
        let lower_is_better = match string_field(m, "better", &ctx)?.as_str() {
            "lower" => true,
            "higher" => false,
            other => return Err(format!("{ctx}: better must be lower|higher, got {other:?}")),
        };
        let bound = if bounded {
            let b = field(m, "bound", &ctx)?
                .as_f64()
                .ok_or_else(|| format!("{ctx}: bound is not a number"))?;
            if !(b > 0.0 && b <= 0.25) {
                return Err(format!("{ctx}: bound {b} outside (0, 0.25]"));
            }
            Some(b)
        } else {
            None
        };
        if out.iter().any(|o| o.name == name) {
            return Err(format!("{ctx}: duplicate metric {name:?}"));
        }
        out.push(MetricSpec {
            name,
            unit,
            lower_is_better,
            bound,
        });
    }
    if out.is_empty() {
        return Err(format!("{key:?} is empty"));
    }
    Ok(out)
}

impl BenchSpec {
    /// Parses and checks `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        if text.len() > MAX_SPEC_BYTES {
            return Err(format!("{} bytes exceeds {MAX_SPEC_BYTES}", text.len()));
        }
        let root = Json::parse(text)?;
        let workloads = field(&root, "workloads", "BENCHMARK.json")?
            .as_arr()
            .ok_or("\"workloads\" is not an array")?
            .iter()
            .enumerate()
            .map(|(i, w)| string_field(w, "name", &format!("workloads[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() {
            return Err("\"workloads\" is empty".into());
        }
        let run_seconds = field(&root, "run_seconds", "BENCHMARK.json")?
            .as_f64()
            .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
            .ok_or("\"run_seconds\" must be a whole number in 1..=60")?
            as u64;
        Ok(BenchSpec {
            workloads,
            run_seconds,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
        })
    }
}

/// The checked contents of `perfbench/record.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// `seed -> cell label -> digest` of `RunReport::to_kv`.
    pub digests: BTreeMap<u64, BTreeMap<String, String>>,
    /// `workload -> end-to-end metric -> baseline median`.
    pub baseline: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Record {
    /// The record compiled into this binary.
    pub fn builtin() -> Result<Record, String> {
        Record::parse(include_str!("../record.json"))
    }

    /// Parses `record.json`.
    pub fn parse(text: &str) -> Result<Record, String> {
        let root = Json::parse(text)?;
        let mut record = Record::default();
        let digests = field(&root, "digests", "record.json")?
            .as_obj()
            .ok_or("\"digests\" is not an object")?;
        for (seed, cells) in digests {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("digests: seed {seed:?} is not an integer"))?;
            let cells = cells
                .as_obj()
                .ok_or_else(|| format!("digests.{seed} is not an object"))?;
            let mut by_label = BTreeMap::new();
            for (label, digest) in cells {
                let d = digest
                    .as_str()
                    .filter(|d| d.len() == 16 && d.chars().all(|c| c.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("digests.{seed}.{label}: not a 16-digit hex digest"))?;
                by_label.insert(label.clone(), d.to_string());
            }
            record.digests.insert(seed, by_label);
        }
        let baseline = field(&root, "baseline", "record.json")?
            .as_obj()
            .ok_or("\"baseline\" is not an object")?;
        for (workload, metrics) in baseline {
            let metrics = metrics
                .as_obj()
                .ok_or_else(|| format!("baseline.{workload} is not an object"))?;
            let mut values = BTreeMap::new();
            for (name, v) in metrics {
                let v = v
                    .as_f64()
                    .filter(|v| *v > 0.0)
                    .ok_or_else(|| format!("baseline.{workload}.{name}: not a positive number"))?;
                values.insert(name.clone(), v);
            }
            record.baseline.insert(workload.clone(), values);
        }
        Ok(record)
    }

    /// The recorded digest of `label` at `seed`, if any.
    pub fn digest(&self, seed: u64, label: &str) -> Option<&str> {
        self.digests.get(&seed)?.get(label).map(String::as_str)
    }
}
