//! Training metrics: the accuracy curve a run records.

/// A time-stamped accuracy/loss curve, the shape every "accuracy vs time"
/// figure in the paper plots.
#[derive(Debug, Clone, Default)]
pub struct Curve {
    points: Vec<CurvePoint>,
}

/// One evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration at evaluation.
    pub iter: u64,
    /// Time at evaluation (seconds, wall or simulated).
    pub time: f64,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Training loss at that point.
    pub loss: f32,
}

impl Curve {
    /// Empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an evaluation point (iterations must be non-decreasing).
    pub fn push(&mut self, point: CurvePoint) {
        if let Some(last) = self.points.last() {
            debug_assert!(point.iter >= last.iter, "curve must move forward");
        }
        self.points.push(point);
    }

    /// All points in order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Final accuracy (0 when empty).
    pub fn final_accuracy(&self) -> f32 {
        self.points.last().map(|p| p.accuracy).unwrap_or(0.0)
    }

    /// Best accuracy seen.
    pub fn best_accuracy(&self) -> f32 {
        self.points
            .iter()
            .map(|p| p.accuracy)
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(iter: u64, time: f64, acc: f32) -> CurvePoint {
        CurvePoint {
            iter,
            time,
            accuracy: acc,
            loss: 1.0,
        }
    }

    #[test]
    fn curve_summaries() {
        let mut c = Curve::new();
        c.push(pt(0, 0.0, 0.1));
        c.push(pt(100, 5.0, 0.6));
        c.push(pt(200, 10.0, 0.55));
        assert_eq!(c.final_accuracy(), 0.55);
        assert_eq!(c.best_accuracy(), 0.6);
        assert_eq!(c.points().len(), 3);
    }

    #[test]
    fn empty_curve_defaults() {
        let c = Curve::new();
        assert_eq!(c.final_accuracy(), 0.0);
        assert_eq!(c.best_accuracy(), 0.0);
    }
}
