//! Learning-rate schedules: the figures train at a constant rate, and
//! Figure 8 with step decay.

/// A learning-rate schedule: iteration → learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// Multiply by `factor` every `every` iterations.
    StepDecay {
        /// Base learning rate.
        base: f32,
        /// Decay period in iterations.
        every: u64,
        /// Multiplicative factor per period (e.g. 0.1).
        factor: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `iter` (0-based).
    pub fn lr(&self, iter: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay {
                base,
                every,
                factor,
            } => base * factor.powi((iter / every) as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant(0.1);
        assert_eq!(s.lr(0), 0.1);
        assert_eq!(s.lr(10_000), 0.1);
    }

    #[test]
    fn step_decay_steps_at_boundaries() {
        let s = LrSchedule::StepDecay {
            base: 1.0,
            every: 100,
            factor: 0.1,
        };
        assert_eq!(s.lr(0), 1.0);
        assert_eq!(s.lr(99), 1.0);
        assert!((s.lr(100) - 0.1).abs() < 1e-7);
        assert!((s.lr(250) - 0.01).abs() < 1e-8);
    }
}
