//! Predictive data-type detection (paper future work).
//!
//! "In the future, we plan to investigate more effective solutions to
//! detect and predict the real-time data types." This module implements
//! the natural first step: an EWMA-with-trend (Holt) forecaster over the
//! windowed access counts, letting ERMS pre-boost a file whose demand is
//! *rising toward* τ_M instead of waiting for it to cross. The manager
//! does not enable it by default; the ablation bench measures what it
//! buys.

/// Holt double-exponential smoothing of a demand series.
#[derive(Debug, Clone)]
pub struct DemandPredictor {
    /// Level smoothing factor.
    alpha: f64,
    /// Trend smoothing factor.
    beta: f64,
    level: Option<f64>,
    trend: f64,
    observations: u64,
}

impl DemandPredictor {
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
        DemandPredictor {
            alpha,
            beta,
            level: None,
            trend: 0.0,
            observations: 0,
        }
    }

    /// Sensible defaults for per-minute demand samples.
    pub fn default_params() -> Self {
        DemandPredictor::new(0.5, 0.3)
    }

    /// Feed one windowed access count.
    pub fn observe(&mut self, n_d: f64) {
        self.observations += 1;
        match self.level {
            None => self.level = Some(n_d),
            Some(prev_level) => {
                let level = self.alpha * n_d + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }

    /// Forecast demand `steps` ticks ahead (clamped at zero).
    pub fn forecast(&self, steps: u32) -> f64 {
        match self.level {
            None => 0.0,
            Some(l) => (l + self.trend * steps as f64).max(0.0),
        }
    }

    pub fn trend(&self) -> f64 {
        self.trend
    }
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Will demand cross `threshold` within `steps` ticks?
    pub fn predicts_hot(&self, threshold: f64, steps: u32) -> bool {
        self.observations >= 2 && self.forecast(steps) > threshold
    }
}

impl checkpoint::Checkpointable for DemandPredictor {
    // α/β are constructor parameters; only the smoothed level, trend and
    // observation count are runtime state.
    checkpoint::ck_fields!(level, trend, observations);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_forecasts_itself() {
        let mut p = DemandPredictor::default_params();
        for _ in 0..20 {
            p.observe(10.0);
        }
        assert!((p.forecast(5) - 10.0).abs() < 0.5);
        assert!(p.trend().abs() < 0.1);
    }

    #[test]
    fn rising_series_predicts_crossing_early() {
        let mut p = DemandPredictor::default_params();
        // demand ramps 2, 4, 6, ... — currently at 10, threshold is 16
        for i in 1..=5 {
            p.observe(2.0 * i as f64);
        }
        assert!(p.trend() > 0.5, "trend detected: {}", p.trend());
        assert!(
            p.predicts_hot(14.0, 4),
            "ramp should cross 14 within 4 steps (forecast {})",
            p.forecast(4)
        );
        assert!(!p.predicts_hot(14.0, 0), "not hot *now*");
    }

    #[test]
    fn falling_series_never_goes_negative() {
        let mut p = DemandPredictor::default_params();
        for v in [20.0, 10.0, 5.0, 2.0, 1.0, 0.0] {
            p.observe(v);
        }
        assert!(p.trend() < 0.0);
        assert!(p.forecast(100) >= 0.0);
        assert!(!p.predicts_hot(5.0, 10));
    }

    #[test]
    fn needs_two_observations() {
        let mut p = DemandPredictor::default_params();
        assert!(!p.predicts_hot(0.0, 1), "empty predictor never fires");
        p.observe(100.0);
        assert!(!p.predicts_hot(1.0, 1), "one sample is not a trend");
        p.observe(100.0);
        assert!(p.predicts_hot(1.0, 1));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_params() {
        DemandPredictor::new(1.5, 0.5);
    }

    #[test]
    fn checkpoint_round_trip_forecasts_identically() {
        use checkpoint::Checkpointable;
        let mut p = DemandPredictor::default_params();
        for i in 1..=5 {
            p.observe(2.0 * i as f64);
        }
        let json = serde_json::to_string(&p.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut fresh = DemandPredictor::default_params();
        fresh.load_state(&back).unwrap();
        assert_eq!(fresh.observations(), p.observations());
        assert_eq!(fresh.forecast(4).to_bits(), p.forecast(4).to_bits());
        // an empty predictor's None level survives too
        let empty = DemandPredictor::default_params();
        let mut fresh = DemandPredictor::default_params();
        fresh.load_state(&empty.save_state()).unwrap();
        assert_eq!(fresh.forecast(1), 0.0);
        assert_eq!(fresh.observations(), 0);
    }
}
