//! Labelled time breakdowns.
//!
//! Fig. 6 of the paper splits the user compute time of every partition at
//! every merge level into labelled components (copy source partition, copy
//! sink partition, create partition object, Phase-1 tour). [`TimeBreakdown`]
//! is the container for such a split.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Accumulated durations keyed by phase label.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct TimeBreakdown {
    buckets: BTreeMap<String, Duration>,
}

impl TimeBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to the bucket `phase`.
    pub fn add(&mut self, phase: &str, d: Duration) {
        *self.buckets.entry(phase.to_string()).or_default() += d;
    }

    /// Duration accumulated in `phase` (zero if unseen).
    pub fn get(&self, phase: &str) -> Duration {
        self.buckets.get(phase).copied().unwrap_or_default()
    }

    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.buckets.values().sum()
    }

    /// Iterator over `(phase, duration)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> + '_ {
        self.buckets.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another breakdown into this one, summing shared buckets.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Fraction of the total spent in `phase` (0 if the total is zero).
    pub fn fraction(&self, phase: &str) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.get(phase).as_secs_f64() / total
        }
    }

    /// Phase labels present in the breakdown.
    pub fn phases(&self) -> Vec<&str> {
        self.buckets.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_merge_and_fraction() {
        let mut a = TimeBreakdown::new();
        a.add("x", Duration::from_millis(30));
        a.add("y", Duration::from_millis(10));
        let mut b = TimeBreakdown::new();
        b.add("x", Duration::from_millis(10));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_millis(40));
        assert_eq!(a.total(), Duration::from_millis(50));
        assert!((a.fraction("x") - 0.8).abs() < 1e-9);
        assert_eq!(a.fraction("missing"), 0.0);
    }

    #[test]
    fn empty_breakdown_total_is_zero() {
        let bd = TimeBreakdown::new();
        assert_eq!(bd.total(), Duration::ZERO);
        assert_eq!(bd.fraction("x"), 0.0);
        assert!(bd.phases().is_empty());
    }
}
