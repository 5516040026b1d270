//! Data series and rendering of experiment results.

use std::fmt::Write as _;

/// One line of a plot: a label and `(n, flops/cycle)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "LGen-Full", "MKL 11.1").
    pub label: String,
    /// `(x, f/c)` samples; `None` marks a competitor unavailable at that x.
    pub points: Vec<(usize, Option<f64>)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The maximum f/c over the sweep (0 if empty/unavailable).
    #[cfg(test)]
    pub(crate) fn peak(&self) -> f64 {
        self.points.iter().filter_map(|p| p.1).fold(0.0, f64::max)
    }

    /// Geometric mean of f/c over available points (0 if none).
    pub fn geomean(&self) -> f64 {
        let vals: Vec<f64> = self.points.iter().filter_map(|p| p.1).collect();
        if vals.is_empty() {
            0.0
        } else {
            (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
        }
    }
}

/// A whole figure: id, caption, and its series over a shared x sweep.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Figure {
    /// Paper artifact id, e.g. "fig-5.1a".
    pub id: String,
    /// Caption, e.g. "y = Ax, A is 4×n (Intel Atom)".
    pub title: String,
    /// X-axis meaning.
    pub xlabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, title: &str, xlabel: &str) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            series: Vec::new(),
        }
    }

    /// The series with the given label, if present.
    #[cfg(test)]
    pub(crate) fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the figure as an aligned text table (performance in f/c,
    /// matching the paper's y-axes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = write!(out, "{:>8}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, "  {:>18}", truncate(&s.label, 18));
        }
        let _ = writeln!(out);
        let xs: Vec<usize> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (row, &x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>8}");
            for s in &self.series {
                match s.points.get(row).and_then(|p| p.1) {
                    Some(v) => {
                        let _ = write!(out, "  {v:>18.3}");
                    }
                    None => {
                        let _ = write!(out, "  {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("fig-x", "test", "n");
        let mut a = Series::new("A");
        a.points = vec![(2, Some(1.0)), (4, Some(2.0))];
        let mut b = Series::new("B");
        b.points = vec![(2, None), (4, Some(0.5))];
        f.series = vec![a, b];
        f
    }

    #[test]
    fn render_contains_all_points() {
        let txt = sample().render();
        assert!(txt.contains("fig-x"));
        assert!(txt.contains("1.000"));
        assert!(txt.contains("0.500"));
        assert!(txt.contains('-'));
    }

    #[test]
    fn stats() {
        let f = sample();
        assert_eq!(f.series("A").unwrap().peak(), 2.0);
        assert!(f.series("B").unwrap().geomean() > 0.49);
    }
}
