//! What one run of one workload measured, and the result line the benchmark
//! contract asks for.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::trace::Span;
use euler_metrics::json::Value;

/// Operations attempted and failed, and the measured values by metric name.
/// The measuring child hands this to the driver process as JSON. Names that
/// are in neither metric table (`samples`, `setup.server_s`) are hand-offs to
/// the driver process and never reach the result object.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed repetitions or requests, plus output verifications.
    pub attempted: u64,
    /// Those that errored, timed out or failed verification.
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

/// What measuring one workload produced: the outcome, and the spans of its
/// traced repetitions or requests (empty when untraced).
pub struct Measured {
    pub outcome: Outcome,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        values.into_iter().for_each(|(name, value)| self.set(name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Counts one operation; logs and counts the failure if it failed.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("bench_e2e: {what} failed: {e}");
                None
            }
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "values",
                Value::Obj(self.values.iter().map(|(n, v)| (n.clone(), Value::Num(*v))).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Outcome> {
        let Value::Obj(pairs) = v.get("values")? else {
            return None;
        };
        Some(Outcome {
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            values: pairs
                .iter()
                .filter_map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                .collect(),
        })
    }

    /// The metric table this run reports: end-to-end untraced, per-layer traced.
    pub fn table(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of the table (a
    /// per-layer metric nobody set is a layer that did not run: 0).
    pub fn result_line(&self, trace: bool) -> Value {
        let metrics = Self::table(trace)
            .iter()
            .map(|m| {
                let value = self.get(m.name).unwrap_or(0.0);
                (
                    m.name,
                    Value::obj(vec![("value", Value::Num(value)), ("unit", Value::str(m.unit))]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit (and bound, for end-to-end ones).
    pub fn print_table(&self, workload: &str, trace: bool) {
        println!(
            "# {workload}: {} operations attempted, {} failed; circuit_s is the median of {} samples",
            self.attempted,
            self.failed,
            self.get("samples").unwrap_or(0.0)
        );
        for m in Self::table(trace) {
            let value = self.get(m.name).unwrap_or(0.0);
            let bound = m.bound.map_or(String::new(), |b| {
                format!("  ({} is better, bound {b})", m.better.as_str())
            });
            println!("{:<40} {value:>18.6} {}{bound}", m.name, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_roundtrips_and_fills_the_result_line() {
        let mut o = Outcome::default();
        assert_eq!(o.attempt("ok", Ok(1)), Some(1));
        assert_eq!(o.attempt::<()>("bad", Err("boom".into())), None);
        o.set("circuit_s", 1.5);
        o.set("circuit_s", 2.5);
        let back = Outcome::from_json(&euler_metrics::json::parse(&o.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!((back.attempted, back.failed, back.get("circuit_s")), (2, 1, Some(2.5)));
        let line = back.result_line(false);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("circuit_s"))
                .and_then(|m| m.get("value")),
            Some(&Value::Num(2.5))
        );
        let Some(Value::Obj(layers)) = Outcome::default().result_line(true).get("metrics").cloned() else {
            panic!()
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
