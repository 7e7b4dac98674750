//! Cost model configuration.

use serde::{Deserialize, Serialize};

/// How local storage access of *write* queries is accounted (§2.1).
///
/// The paper discusses three strategies and adopts
/// [`WriteAccounting::AllAttributes`] — a conservative overestimate that
/// keeps the program linear-sized. The other two are implemented for cost
/// *evaluation* and ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WriteAccounting {
    /// Writes pay for **all** attributes of touched tables on every replica
    /// site (`A_W = Σ W·β·δ·y`). Exact for full-row inserts, an
    /// overestimate for narrow updates. The paper's choice; the only
    /// strategy expressible in the linear program without quadratic blowup.
    #[default]
    AllAttributes,
    /// Writes pay no local access at all; only network transfer counts.
    /// Underestimates, so attributes tend to be replicated more.
    NoAttributes,
    /// Writes pay for attribute `a` on site `s` only if some *written*
    /// attribute `a'` of the same table is also on `s` (`y_{a,s}·y_{a',s}`
    /// pairing). Most accurate; costs `|A|²|S|` extra variables when
    /// linearized, so it is supported for evaluation only.
    RelevantAttributes,
}

/// Parameters of the cost model (§2, §5 defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostConfig {
    /// Network penalty factor `p`: how much more expensive one transferred
    /// byte is than one locally accessed byte. The paper estimates
    /// `p ∈ [3, 128]` and uses **8** (10-gigabit network). `p = 0`
    /// simulates *local* placement of all partitions (Table 6).
    pub p: f64,
    /// Load-balancing blend `λ ∈ [0, 1]` of objective (6): `λ·cost +
    /// (1−λ)·max_site_work`. `λ = 1` disables load balancing.
    ///
    /// **Default: 0.9.** The paper *prints* `λ = 0.1`, but its prose says
    /// the opposite of its formula ("we mainly focus on minimizing the
    /// total costs and therefore set λ low" only makes sense if λ weighted
    /// the *load* term), and its published results require cost-dominant
    /// optimization: Table 5's replicated-vs-disjoint ratios are ≤ 100%
    /// and Table 6's footnote attributes small cost regressions to
    /// "λ > 0", i.e. λ = 0 would be pure cost minimization. Under the
    /// printed formula with λ = 0.1 the max-load term dominates and those
    /// results are not reproducible (replication would *raise* reported
    /// cost). We therefore read formula (6) literally but default to the
    /// behavioral equivalent of the paper's intent: λ = 0.9 (cost 90%,
    /// load tie-break 10%). README "Design notes" points here.
    pub lambda: f64,
    /// Write accounting strategy (see [`WriteAccounting`]).
    pub write_accounting: WriteAccounting,
    /// Latency penalty `p_l` of Appendix A; `None` disables the latency
    /// term (the paper's default — consensus in related work ignores
    /// latency).
    pub latency_penalty: Option<f64>,
}

impl Default for CostConfig {
    fn default() -> Self {
        Self {
            p: 8.0,
            lambda: 0.9,
            write_accounting: WriteAccounting::AllAttributes,
            latency_penalty: None,
        }
    }
}

impl CostConfig {
    /// The paper's remote-placement default (`p = 8`, `λ = 0.1`).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Local placement: all partitions on one host, no transfer cost
    /// (`p = 0`), as in Table 6's "Local" columns.
    pub fn local_placement() -> Self {
        Self {
            p: 0.0,
            ..Self::default()
        }
    }

    /// Sets the network penalty.
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Sets the load-balancing blend.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the write accounting strategy.
    pub fn with_write_accounting(mut self, wa: WriteAccounting) -> Self {
        self.write_accounting = wa;
        self
    }

    /// Enables the Appendix A latency term with penalty `pl`.
    pub fn with_latency(mut self, pl: f64) -> Self {
        self.latency_penalty = Some(pl);
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        if !self.p.is_finite() || self.p < 0.0 {
            return Err(crate::CoreError::BadConfig(format!(
                "p must be >= 0, got {}",
                self.p
            )));
        }
        if !self.lambda.is_finite() || !(0.0..=1.0).contains(&self.lambda) {
            return Err(crate::CoreError::BadConfig(format!(
                "lambda must be in [0, 1], got {}",
                self.lambda
            )));
        }
        if let Some(pl) = self.latency_penalty {
            if !pl.is_finite() || pl < 0.0 {
                return Err(crate::CoreError::BadConfig(format!(
                    "latency penalty must be >= 0, got {pl}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = CostConfig::default();
        assert_eq!(c.p, 8.0);
        assert_eq!(c.lambda, 0.9);
        assert_eq!(c.write_accounting, WriteAccounting::AllAttributes);
        assert!(c.latency_penalty.is_none());
        c.validate().unwrap();
    }

    #[test]
    fn local_placement_zeroes_p() {
        let c = CostConfig::local_placement();
        assert_eq!(c.p, 0.0);
        c.validate().unwrap();
    }

    #[test]
    fn builders_chain() {
        let c = CostConfig::default()
            .with_p(3.0)
            .with_lambda(1.0)
            .with_write_accounting(WriteAccounting::NoAttributes)
            .with_latency(2.0);
        assert_eq!(c.p, 3.0);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.latency_penalty, Some(2.0));
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(CostConfig::default().with_p(-1.0).validate().is_err());
        assert!(CostConfig::default().with_lambda(1.5).validate().is_err());
        assert!(CostConfig::default()
            .with_latency(f64::NAN)
            .validate()
            .is_err());
    }
}
