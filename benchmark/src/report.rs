//! The metric catalog and the result of one workload run.
//!
//! The catalog — every metric's name and unit, end-to-end or per-layer —
//! is read from `BENCHMARK.json` at start-up; that file is its only copy.

use cxu::gen::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// Metric names and units, in `BENCHMARK.json` order.
#[derive(Debug)]
pub struct Catalog {
    /// Reported by every workload's untraced run; never zero.
    pub end_to_end: Vec<(String, String)>,
    /// Reported by traced runs, named after the crate whose work they
    /// measure; a metric that does not apply to a workload reads 0.
    pub per_layer: Vec<(String, String)>,
}

static CATALOG: OnceLock<Catalog> = OnceLock::new();

impl Catalog {
    fn parse(text: &str) -> Result<Catalog, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no {key:?} list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("a {key:?} entry has no {k:?}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Catalog {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Loads the catalog from `path` (once per process).
    pub fn load(path: &Path) -> Result<&'static Catalog, String> {
        if let Some(c) = CATALOG.get() {
            return Ok(c);
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let c = Catalog::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(CATALOG.get_or_init(|| c))
    }

    fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.0 == name)
            .map(|m| m.1.as_str())
    }

    fn is_end_to_end(&self, name: &str) -> bool {
        self.end_to_end.iter().any(|m| m.0 == name)
    }
}

/// The loaded catalog.
pub fn catalog() -> &'static Catalog {
    CATALOG
        .get()
        .expect("the metric catalog is loaded at start-up")
}

/// One correctness check and whether it held.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Catalog metrics plus diagnostics, by name: `(value, unit)`.
    pub values: BTreeMap<String, (f64, String)>,
}

impl Outcome {
    pub fn new(workload: &'static str, fingerprint: String) -> Outcome {
        let mut values = BTreeMap::new();
        for (name, unit) in &catalog().per_layer {
            values.insert(name.clone(), (0.0, unit.clone()));
        }
        Outcome {
            workload,
            fingerprint,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values,
        }
    }

    /// Sets a catalog metric (unit from the catalog).
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = catalog()
            .unit(name)
            .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.values
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Sets a diagnostic: printed and saved, never part of the result line.
    pub fn diag(&mut self, name: &str, value: f64, unit: &str) {
        self.values
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (untraced runs) or every per-layer metric (traced runs).
    pub fn metrics_json(&self, traced: bool) -> String {
        let c = catalog();
        let names = if traced { &c.per_layer } else { &c.end_to_end };
        let mut s = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.values.get(name).map_or(0.0, |v| v.0);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        s.push('}');
        s
    }

    /// The full report: every value, every check, the fingerprint.
    pub fn report_json(&self, seed: u64, seconds: f64, traced: bool) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"traced\": {traced}, \"fingerprint\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [",
            self.workload,
            num(seconds),
            self.fingerprint,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let mut detail = String::new();
            cxu::gen::json::write_escaped(&c.detail, &mut detail);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ok\": {}, \"detail\": {detail}}}",
                c.name, c.ok
            );
        }
        s.push_str("], \"metrics\": {");
        for (i, (name, (v, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table (end-to-end first, then per-layer, then
    /// diagnostics) and the check results.
    pub fn table(&self) -> String {
        let mut s = format!(
            "== {}  fingerprint {}  attempted {}  failed {}  correct {}\n",
            self.workload,
            self.fingerprint,
            self.attempted,
            self.failed,
            self.correct()
        );
        let c = catalog();
        let mut rows: Vec<(u8, &String, &(f64, String))> = self
            .values
            .iter()
            .map(|(n, v)| {
                let kind = if c.is_end_to_end(n) {
                    0
                } else if c.unit(n).is_some() {
                    1
                } else {
                    2
                };
                (kind, n, v)
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        for (kind, name, (v, unit)) in rows {
            let tag = ["e2e", "layer", "diag"][kind as usize];
            let _ = writeln!(s, "  {tag:<5} {name:<34} {:>16} {unit}", fmt_value(*v));
        }
        for c in &self.checks {
            let _ = writeln!(
                s,
                "  check {:<34} {:>16} {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        s
    }
}

/// A JSON number with every digit Rust keeps (shortest round-trip form).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Loads `BENCHMARK.json` from the repository root for unit tests.
    pub(crate) fn load_catalog() -> &'static Catalog {
        Catalog::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let c = load_catalog();
        assert!(!c.end_to_end.is_empty() && !c.per_layer.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let c = load_catalog();
        let mut o = Outcome::new("check-hot", "0".into());
        for (name, _) in &c.end_to_end {
            o.set(name, 1.5);
        }
        let untraced = Json::parse(&o.metrics_json(false)).unwrap();
        let traced = Json::parse(&o.metrics_json(true)).unwrap();
        for (name, unit) in &c.end_to_end {
            let m = untraced.get(name).expect(name);
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        }
        for (name, _) in &c.per_layer {
            assert!(traced.get(name).is_some(), "{name}");
        }
    }
}
