//! Metric names, sample bookkeeping and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("index_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). Every
/// workload prints all of them; a layer a workload does not exercise
/// reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.rapid_parse_s", "s"),
    ("trace.text_parse_s", "s"),
    ("analyses.base_order_s", "s"),
    ("analyses.race_s", "s"),
    ("analyses.race_self_s", "s"),
    ("analyses.deadlock_s", "s"),
    ("analyses.deadlock_self_s", "s"),
    ("analyses.membug_s", "s"),
    ("analyses.membug_self_s", "s"),
    ("analyses.uaf_s", "s"),
    ("analyses.uaf_self_s", "s"),
    ("analyses.linearizability_s", "s"),
    ("analyses.linearizability_self_s", "s"),
    ("analyses.tso_s", "s"),
    ("analyses.tso_self_s", "s"),
    ("analyses.c11_s", "s"),
    ("analyses.c11_self_s", "s"),
    ("analyses.race_window_sequential_s", "s"),
    ("core.insert_s", "s"),
    ("core.delete_s", "s"),
    ("core.query_s", "s"),
    ("core.ns_per_probe", "ns"),
    ("core.inserts", "count"),
    ("core.deletes", "count"),
    ("core.probes.reachable", "count"),
    ("core.probes.successor", "count"),
    ("core.probes.predecessor", "count"),
    ("core.batch_calls", "count"),
    ("serve.race_pipeline_s", "s"),
    ("serve.wire_s", "s"),
    ("serve.hello_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("serve.frame_write_s", "s"),
    ("serve.frames", "count"),
    ("serve.bytes_sent", "count"),
    ("ref.vc_events_per_s", "1/s"),
    ("trace_overhead_frac", "frac"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// A latency percentile of a run made of units (passes or sessions):
/// the `q`-quantile within each unit, then the median over units. A
/// burst of host noise that slows a few units moves it little, where a
/// pooled percentile would be set by those units alone. The sample
/// count is every latency measured.
pub fn unit_quantile(units: &[Vec<f64>], q: f64) -> Value {
    let per_unit: Vec<f64> = units.iter().map(|u| quantile(u, q)).collect();
    Value {
        value: median(&per_unit),
        samples: units.iter().map(Vec::len).sum(),
    }
}

/// One printed metric: its value and the number of samples behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Value {
    /// The reported figure.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// Samples collected per metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median of `name`'s samples.
    pub fn median(&self, name: &str) -> Value {
        let v = self.0.get(name).map_or(&[][..], Vec::as_slice);
        Value {
            value: median(v),
            samples: v.len(),
        }
    }
}

/// Operation outcomes: attempted and failed analysis runs, sessions,
/// queries and reports.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose result was wrong or that errored.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Outcomes {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object under construction, with keys in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Adds a raw JSON value.
    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push((key.to_string(), json));
        self
    }

    /// Adds a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Adds a number.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The `metrics` object of the result line, and the samples object of
/// the detail line, for the metrics in `table`.
pub fn metric_objects(table: &[(&str, &str)], values: &BTreeMap<&str, Value>) -> (Obj, Obj) {
    let mut metrics = Obj::default();
    let mut samples = Obj::default();
    for &(name, unit) in table {
        let v = values.get(name).copied().unwrap_or_default();
        metrics = metrics.raw(
            name,
            Obj::default()
                .num("value", v.value)
                .str("unit", unit)
                .render(),
        );
        samples = samples.num(name, v.samples as f64);
    }
    (metrics, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `section` in BENCHMARK.json.
    fn entries(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |s: &str, key: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = s[at..].find('"')?;
            Some((s[at..at + len].to_string(), at + len))
        };
        let mut out = Vec::new();
        let mut rest = body;
        while let Some((name, end)) = field(rest, "name") {
            rest = &rest[end..];
            let unit = field(rest, "unit").map_or(String::new(), |(u, _)| u);
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries(json, "end_to_end"), own(END_TO_END));
        assert_eq!(entries(json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = entries(json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let own_workloads: Vec<String> = crate::WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn unit_quantile_takes_the_median_over_units() {
        let units = vec![
            vec![1.0, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![4.0, 5.0, 6.0],
        ];
        let v = unit_quantile(&units, 0.5);
        assert_eq!((v.value, v.samples), (5.0, 9));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
