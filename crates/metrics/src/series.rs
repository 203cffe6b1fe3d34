//! Numeric data series for figure reproduction.
//!
//! Every figure in the paper's evaluation is a set of named series of `(x, y)`
//! points (e.g. Fig. 5: "Total Time" and "Compute Time" versus graph
//! configuration). The benchmark harness binaries collect [`Series`] values
//! and print them in a plot-ready, machine-parseable form.

use serde::{Deserialize, Serialize};

/// One point of a series: a label for the x position (graph name, level,
/// partition id, …), a numeric x (for scatter/trend plots), and the y value.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct DataPoint {
    /// Human-readable x label.
    pub label: String,
    /// Numeric x coordinate.
    pub x: f64,
    /// y value.
    pub y: f64,
}

/// A named series of data points.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct Series {
    /// Series name (legend entry).
    pub name: String,
    /// Points in insertion order.
    pub points: Vec<DataPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a labelled point.
    pub fn push(&mut self, label: impl Into<String>, x: f64, y: f64) {
        self.points.push(DataPoint { label: label.into(), x, y });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y values in order.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }

    /// Least-squares linear fit `y = a*x + b` over the points, returning
    /// `(slope, intercept)`. Returns `None` with fewer than two points or zero
    /// x variance. Used by the Fig.-7 harness for its trend line.
    pub fn linear_fit(&self) -> Option<(f64, f64)> {
        let n = self.points.len() as f64;
        if self.points.len() < 2 {
            return None;
        }
        let sx: f64 = self.points.iter().map(|p| p.x).sum();
        let sy: f64 = self.points.iter().map(|p| p.y).sum();
        let sxx: f64 = self.points.iter().map(|p| p.x * p.x).sum();
        let sxy: f64 = self.points.iter().map(|p| p.x * p.y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        Some((slope, intercept))
    }

    /// Pearson correlation coefficient between x and y (Fig. 7 reports how
    /// closely observed times track the expected complexity).
    pub fn correlation(&self) -> Option<f64> {
        let n = self.points.len() as f64;
        if self.points.len() < 2 {
            return None;
        }
        let mx = self.points.iter().map(|p| p.x).sum::<f64>() / n;
        let my = self.points.iter().map(|p| p.y).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for p in &self.points {
            cov += (p.x - mx) * (p.y - my);
            vx += (p.x - mx).powi(2);
            vy += (p.y - my).powi(2);
        }
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }

    /// Renders the series as simple `label\tx\ty` rows, prefixed by a header.
    pub fn to_tsv(&self) -> String {
        let mut out = format!("# series: {}\n# label\tx\t{}\n", self.name, self.name);
        for p in &self.points {
            out.push_str(&format!("{}\t{}\t{}\n", p.label, p.x, p.y));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut s = Series::new("total_time");
        assert!(s.is_empty());
        s.push("G20_P2", 2.0, 11.5);
        s.push("G50_P8", 3.0, 15.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ys(), vec![11.5, 15.0]);
        assert_eq!(s.points[1].label, "G50_P8");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let mut s = Series::new("y=2x+1");
        for x in 0..10 {
            s.push(format!("{x}"), x as f64, 2.0 * x as f64 + 1.0);
        }
        let (a, b) = s.linear_fit().unwrap();
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 1.0).abs() < 1e-9);
        assert!((s.correlation().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_needs_two_points_and_variance() {
        let mut s = Series::new("one");
        s.push("a", 1.0, 1.0);
        assert!(s.linear_fit().is_none());
        s.push("b", 1.0, 2.0); // zero x variance
        assert!(s.linear_fit().is_none());
        assert!(s.correlation().is_none());
    }

    #[test]
    fn tsv_contains_all_rows() {
        let mut s = Series::new("m");
        s.push("a", 1.0, 2.0);
        s.push("b", 2.0, 3.0);
        let tsv = s.to_tsv();
        assert!(tsv.contains("a\t1\t2"));
        assert!(tsv.contains("b\t2\t3"));
        assert!(tsv.starts_with("# series: m"));
    }

    #[test]
    fn negative_correlation_detected() {
        let mut s = Series::new("down");
        for x in 0..5 {
            s.push(format!("{x}"), x as f64, -(x as f64));
        }
        assert!((s.correlation().unwrap() + 1.0).abs() < 1e-9);
    }
}
