//! Bounded-variable primal and dual simplex with explicit basis inverse.
//!
//! Implementation notes:
//!
//! * Constraints are converted to equalities with one slack per row
//!   (`≤ → s ∈ [0, ∞)`, `≥ → s ∈ (−∞, 0]`, `= → s ∈ [0, 0]`).
//! * Rows are equilibrated (scaled by the largest absolute coefficient,
//!   rounded to a power of two so values stay exactly representable), then
//!   structural columns the same way. Column scaling matters for columns
//!   whose coefficients are all tiny after row scaling — the max-load
//!   variable of the partitioning models sits at ~1e-7 once its load rows
//!   are scaled by their byte costs, below the pricing tolerance, so
//!   without it phase 1 never moves that variable and misjudges
//!   feasibility.
//! * A cold solve ([`solve_lp`]) runs phase 1 from an all-artificial basis
//!   (`B = ±I`, so the initial inverse is free) minimizing the sum of
//!   artificials; phase 2 locks the artificials to zero and optimizes the
//!   real objective.
//! * A warm solve ([`resolve_lp`]) restarts from the optimal [`Basis`] of
//!   an LP with the same rows and columns under looser bounds — a branch &
//!   bound parent. That basis stays dual feasible, so a bounded dual
//!   simplex pivots the out-of-bound basic variables out, and a primal
//!   pass mops up any reduced cost left outside tolerance. A warm solve
//!   that fails numerically falls back to the cold path.
//! * The basis inverse `B⁻¹` is kept explicitly (dense row-major `m×m`)
//!   and updated with elementary eta transformations per pivot — `O(m²)`
//!   per iteration, which is the right trade-off for the few-thousand-row
//!   LPs produced by the partitioning models. The dual prices
//!   `y = c_Bᵀ B⁻¹` are accumulated row by row over the basic rows with a
//!   nonzero cost, walking `B⁻¹` in memory order.
//! * Pricing is Dantzig (most negative reduced cost) with a switch to
//!   Bland's rule after a long run of degenerate pivots, guaranteeing
//!   termination.
//! * Both ratio tests are two-pass "Harris-lite": find the minimum ratio,
//!   then among near-ties pick the largest pivot magnitude.
//! * An optional deadline is checked on every pivot and on every column of
//!   a refactorization; once it passes the solve ends with
//!   [`LpOutcome::TimeLimit`].

use crate::error::IlpError;
use crate::model::Cmp;
use std::time::Instant;

/// A linear program in computational form (minimization).
#[derive(Debug, Clone)]
pub struct LpForm {
    /// Number of structural variables.
    pub n: usize,
    /// Sparse columns of the structural part: `cols[j] = [(row, coef)]`.
    pub cols: Vec<Vec<(usize, f64)>>,
    /// Row comparison operators.
    pub cmps: Vec<Cmp>,
    /// Row right-hand sides.
    pub rhs: Vec<f64>,
    /// Structural lower bounds (may be `-inf`).
    pub lower: Vec<f64>,
    /// Structural upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    /// Objective coefficients (minimize).
    pub obj: Vec<f64>,
}

/// A simplex basis: the basic column of every row plus the nonbasic
/// columns resting at their upper bound. It does not depend on the bounds'
/// values, so the optimal basis of one LP restarts any LP with the same
/// rows and columns under other bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Basic column per row: structural `j < n`, the slack of row `i` at
    /// `n + i`, the (locked) artificial of row `i` at `n + m + i`.
    heads: Vec<usize>,
    /// Per structural and slack column: nonbasic at its upper bound.
    at_upper: Vec<bool>,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// Optimal basic solution found.
    Optimal {
        /// Structural variable values.
        x: Vec<f64>,
        /// Objective value (minimization sense).
        obj: f64,
        /// Simplex iterations used (both phases).
        iterations: usize,
        /// The optimal basis, to warm-start a related LP from.
        basis: Basis,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The deadline passed before the solve finished.
    TimeLimit,
}

/// One [`resolve_lp`] call.
#[derive(Debug, Clone)]
pub struct LpRun {
    /// How the solve ended.
    pub outcome: LpOutcome,
    /// Simplex iterations of every attempt, a failed warm one included.
    pub iterations: usize,
    /// True when the warm start, not the cold fallback, gave `outcome`.
    pub warm: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free variable resting at zero (no finite bound).
    FreeZero,
}

const FEAS_TOL: f64 = 1e-7;
const DUAL_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-9;
const DEGEN_LIMIT: usize = 120;
/// Iterations between refactorizations of `B⁻¹`.
const REFACTOR_EVERY: usize = 384;

/// Why a simplex run stopped without an answer.
enum Stop {
    /// The caller's deadline passed.
    Deadline,
    /// Numerical trouble; the LP may still be solvable another way.
    Failed(IlpError),
}

impl From<IlpError> for Stop {
    fn from(e: IlpError) -> Self {
        Stop::Failed(e)
    }
}

/// Inverts the dense row-major `t×t` matrix `mat` by Gauss–Jordan
/// elimination with partial pivoting, calling `check` once per column.
fn invert(
    mut mat: Vec<f64>,
    t: usize,
    check: impl Fn() -> Result<(), Stop>,
) -> Result<Vec<f64>, Stop> {
    let mut inv = vec![0.0f64; t * t];
    for i in 0..t {
        inv[i * t + i] = 1.0;
    }
    for col in 0..t {
        check()?;
        // Partial pivoting.
        let mut piv_row = col;
        let mut piv_val = mat[col * t + col].abs();
        for r in col + 1..t {
            let v = mat[r * t + col].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = r;
            }
        }
        if piv_val < 1e-11 {
            return Err(IlpError::Internal("singular basis").into());
        }
        if piv_row != col {
            for k in 0..t {
                mat.swap(piv_row * t + k, col * t + k);
                inv.swap(piv_row * t + k, col * t + k);
            }
        }
        // Columns left of `col` are already eliminated in every row.
        let piv = mat[col * t + col];
        for k in col..t {
            mat[col * t + k] /= piv;
        }
        for k in 0..t {
            inv[col * t + k] /= piv;
        }
        for r in 0..t {
            let f = mat[r * t + col];
            if r == col || f == 0.0 {
                continue;
            }
            for k in col..t {
                mat[r * t + k] -= f * mat[col * t + k];
            }
            for k in 0..t {
                inv[r * t + k] -= f * inv[col * t + k];
            }
        }
    }
    Ok(inv)
}

/// `2^-round(log2(big))`: the power of two that brings `big` to about 1.
fn pow2_scale(big: f64) -> f64 {
    let e = big.log2().round().clamp(-40.0, 40.0);
    (2.0f64).powi(e as i32).recip()
}

struct Simplex {
    m: usize,
    /// Total columns: structural + slacks + artificials.
    total: usize,
    /// First artificial index (= n + m).
    art0: usize,
    cols: Vec<Vec<(usize, f64)>>,
    /// Per structural column: a model value is the internal value times
    /// this power of two.
    col_scale: Vec<f64>,
    b: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    binv: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VarState>,
    xval: Vec<f64>,
    iterations: usize,
    iter_limit: usize,
    bland: bool,
    degen_run: usize,
    deadline: Option<Instant>,
}

impl Simplex {
    /// The scaled structural columns plus one slack per row. Artificial
    /// columns and the starting basis are added by [`Simplex::cold`] or
    /// [`Simplex::warm`].
    fn scaled(lp: &LpForm, deadline: Option<Instant>) -> Self {
        let m = lp.rhs.len();
        let n = lp.n;

        // Row equilibration: scale each row by 2^-round(log2(max |a|)).
        let mut row_scale = vec![1.0f64; m];
        for col in &lp.cols {
            for &(r, v) in col {
                row_scale[r] = row_scale[r].max(v.abs());
            }
        }
        for s in &mut row_scale {
            *s = pow2_scale(*s);
        }
        // Column equilibration on top of it, in both directions.
        let col_scale: Vec<f64> = lp
            .cols
            .iter()
            .map(|col| {
                let big = col
                    .iter()
                    .fold(0.0f64, |acc, &(r, v)| acc.max((v * row_scale[r]).abs()));
                if big > 0.0 {
                    pow2_scale(big)
                } else {
                    1.0
                }
            })
            .collect();

        let total = n + m + m;
        let art0 = n + m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(total);
        for (col, &c) in lp.cols.iter().zip(&col_scale) {
            cols.push(
                col.iter()
                    .map(|&(r, v)| (r, v * row_scale[r] * c))
                    .collect(),
            );
        }
        let mut lower: Vec<f64> = lp
            .lower
            .iter()
            .zip(&col_scale)
            .map(|(l, c)| l / c)
            .collect();
        let mut upper: Vec<f64> = lp
            .upper
            .iter()
            .zip(&col_scale)
            .map(|(u, c)| u / c)
            .collect();
        // Slacks.
        for (i, cmp) in lp.cmps.iter().enumerate() {
            cols.push(vec![(i, 1.0)]);
            match cmp {
                Cmp::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Cmp::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                Cmp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        let b: Vec<f64> = lp
            .rhs
            .iter()
            .zip(&row_scale)
            .map(|(&v, &s)| v * s)
            .collect();

        Self {
            m,
            total,
            art0,
            cols,
            col_scale,
            b,
            lower,
            upper,
            cost: vec![0.0; total],
            binv: Vec::new(),
            basis: Vec::with_capacity(m),
            state: vec![VarState::AtLower; total],
            xval: vec![0.0; total],
            iterations: 0,
            iter_limit: 50 * (m + total) + 10_000,
            bland: false,
            degen_run: 0,
            deadline,
        }
    }

    /// A cold start: every column nonbasic at a finite bound, and an
    /// all-artificial basis (`B = ±I`) absorbing the residuals.
    fn cold(lp: &LpForm, deadline: Option<Instant>) -> Self {
        let mut s = Self::scaled(lp, deadline);
        let m = s.m;
        for j in 0..s.art0 {
            s.rest_nonbasic(j, false);
        }
        // Residuals determine the artificial columns (basis = ±I).
        let mut resid = s.b.clone();
        for j in 0..s.art0 {
            if s.xval[j] != 0.0 {
                for &(r, v) in &s.cols[j] {
                    resid[r] -= v * s.xval[j];
                }
            }
        }
        s.binv = vec![0.0; m * m];
        for (i, &r) in resid.iter().enumerate() {
            let sign = if r >= 0.0 { 1.0 } else { -1.0 };
            s.cols.push(vec![(i, sign)]);
            s.lower.push(0.0);
            s.upper.push(f64::INFINITY);
            let aj = s.art0 + i;
            s.xval[aj] = r.abs();
            s.state[aj] = VarState::Basic(i);
            s.basis.push(aj);
            s.binv[i * m + i] = sign;
        }
        s
    }

    /// A warm start from `start`: its basic columns, its nonbasic columns at
    /// the bound it names (where that bound is still finite), artificials
    /// locked at zero, and the phase-2 objective.
    fn warm(lp: &LpForm, start: &Basis, deadline: Option<Instant>) -> Result<Self, Stop> {
        let misfit = || Stop::Failed(IlpError::Internal("warm basis does not fit the LP"));
        let mut s = Self::scaled(lp, deadline);
        let m = s.m;
        if start.heads.len() != m || start.at_upper.len() != s.art0 {
            return Err(misfit());
        }
        for i in 0..m {
            s.cols.push(vec![(i, 1.0)]);
            s.lower.push(0.0);
            s.upper.push(0.0);
        }
        for (j, &up) in start.at_upper.iter().enumerate() {
            s.rest_nonbasic(j, up);
        }
        for (r, &j) in start.heads.iter().enumerate() {
            if j >= s.total || matches!(s.state[j], VarState::Basic(_)) {
                return Err(misfit());
            }
            s.state[j] = VarState::Basic(r);
        }
        s.basis = start.heads.clone();
        s.binv = vec![0.0; m * m];
        s.refactorize()?;
        s.refresh_basics();
        s.set_objective(&lp.obj);
        Ok(s)
    }

    /// Parks nonbasic column `j` at its upper bound when `prefer_upper` and
    /// that bound is finite, else at a finite lower, else at a finite
    /// upper bound, else at zero (free).
    fn rest_nonbasic(&mut self, j: usize, prefer_upper: bool) {
        let (lo, hi) = (self.lower[j], self.upper[j]);
        (self.state[j], self.xval[j]) = if prefer_upper && hi.is_finite() {
            (VarState::AtUpper, hi)
        } else if lo.is_finite() {
            (VarState::AtLower, lo)
        } else if hi.is_finite() {
            (VarState::AtUpper, hi)
        } else {
            (VarState::FreeZero, 0.0)
        };
    }

    /// Installs the real objective, scaled so its largest coefficient is 1
    /// for tolerance stability.
    fn set_objective(&mut self, obj: &[f64]) {
        let cmax = obj
            .iter()
            .zip(&self.col_scale)
            .fold(0.0f64, |acc, (c, s)| acc.max((c * s).abs()));
        let cscale = if cmax > 0.0 { 1.0 / cmax } else { 1.0 };
        for (j, (&c, &s)) in obj.iter().zip(&self.col_scale).enumerate() {
            self.cost[j] = c * s * cscale;
        }
    }

    fn check_deadline(&self) -> Result<(), Stop> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Stop::Deadline),
            _ => Ok(()),
        }
    }

    /// Rebuilds `B⁻¹` from the current basis by Gauss–Jordan elimination
    /// with partial pivoting, erasing accumulated eta-update drift. Fails
    /// if the basis matrix is numerically singular.
    ///
    /// Slack and artificial columns are unit vectors, so each basic one owns
    /// its row and only the structural "kernel" needs elimination: with
    /// rows `R_T`/`R_S` and basic columns `T` (structural) / `S` (unit,
    /// diagonal `D`), `B = [[K, 0], [A_ST, D]]` and
    /// `B⁻¹ = [[K⁻¹, 0], [−D⁻¹ A_ST K⁻¹, D⁻¹]]`.
    fn refactorize(&mut self) -> Result<(), Stop> {
        let m = self.m;
        let n = self.art0 - m;
        let singular = || Stop::Failed(IlpError::Internal("singular basis"));
        // Row → (basis position, coefficient) of the unit column owning it.
        let mut owner: Vec<Option<(usize, f64)>> = vec![None; m];
        let mut kcols = Vec::new(); // basis positions of the kernel columns
        for (k, &var) in self.basis.iter().enumerate() {
            if var < n {
                kcols.push(k);
                continue;
            }
            let [(i, d)] = self.cols[var][..] else {
                return Err(singular());
            };
            if owner[i].replace((k, d)).is_some() {
                return Err(singular());
            }
        }
        let krows: Vec<usize> = (0..m).filter(|&i| owner[i].is_none()).collect();
        let t = kcols.len();
        let mut kpos = vec![usize::MAX; m];
        for (a, &i) in krows.iter().enumerate() {
            kpos[i] = a;
        }
        // Dense kernel K (row-major): K[a][b] = B[krows[a]][kcols[b]].
        let mut kmat = vec![0.0f64; t * t];
        for (b, &k) in kcols.iter().enumerate() {
            for &(r, v) in &self.cols[self.basis[k]] {
                if kpos[r] != usize::MAX {
                    kmat[kpos[r] * t + b] = v;
                }
            }
        }
        let kinv = invert(kmat, t, || self.check_deadline())?;

        let mut binv = vec![0.0f64; m * m];
        for (b, &k) in kcols.iter().enumerate() {
            for (a, &i) in krows.iter().enumerate() {
                binv[k * m + i] = kinv[b * t + a];
            }
        }
        for (i, own) in owner.iter().enumerate() {
            if let Some((k, d)) = *own {
                binv[k * m + i] = 1.0 / d;
            }
        }
        // −D⁻¹ A_ST K⁻¹, one kernel-column entry in a unit-owned row at a
        // time.
        for (b, &k) in kcols.iter().enumerate() {
            for &(r, v) in &self.cols[self.basis[k]] {
                if let Some((ku, d)) = owner[r] {
                    let f = v / d;
                    let row = &mut binv[ku * m..(ku + 1) * m];
                    for (a, &i) in krows.iter().enumerate() {
                        row[i] -= f * kinv[b * t + a];
                    }
                }
            }
        }
        self.binv = binv;
        Ok(())
    }

    /// Maximum relative violation of rows (`Ax = b`) and variable bounds at
    /// the current point.
    fn primal_violation(&self) -> f64 {
        let mut resid = self.b.clone();
        let mut mag: Vec<f64> = self.b.iter().map(|v| 1.0 + v.abs()).collect();
        for j in 0..self.total {
            let xj = self.xval[j];
            if xj != 0.0 {
                for &(r, v) in &self.cols[j] {
                    resid[r] -= v * xj;
                    mag[r] += (v * xj).abs();
                }
            }
        }
        let mut worst = 0.0f64;
        for i in 0..self.m {
            worst = worst.max(resid[i].abs() / mag[i]);
        }
        for j in 0..self.total {
            let scale = 1.0 + self.xval[j].abs();
            worst = worst.max((self.lower[j] - self.xval[j]) / scale);
            worst = worst.max((self.xval[j] - self.upper[j]) / scale);
        }
        worst
    }

    /// Recomputes basic variable values from scratch (numerical hygiene).
    fn refresh_basics(&mut self) {
        let m = self.m;
        let mut rhs = self.b.clone();
        for j in 0..self.total {
            if !matches!(self.state[j], VarState::Basic(_)) && self.xval[j] != 0.0 {
                for &(r, v) in &self.cols[j] {
                    rhs[r] -= v * self.xval[j];
                }
            }
        }
        for i in 0..m {
            let mut acc = 0.0;
            for (k, &r) in rhs.iter().enumerate() {
                acc += self.binv[i * m + k] * r;
            }
            self.xval[self.basis[i]] = acc;
        }
    }

    /// Counts one iteration: enforces the iteration limit and the deadline,
    /// and refactorizes periodically to bound eta-update drift.
    fn tick(&mut self) -> Result<(), Stop> {
        self.iterations += 1;
        if self.iterations > self.iter_limit {
            return Err(IlpError::IterationLimit.into());
        }
        self.check_deadline()?;
        if self.iterations.is_multiple_of(REFACTOR_EVERY) {
            self.refactorize()?;
            self.refresh_basics();
        }
        Ok(())
    }

    /// Dual prices `y = c_Bᵀ B⁻¹`, accumulated row by row over the rows of
    /// `B⁻¹` with a nonzero basic cost (contiguous memory; every `y[k]`
    /// sums its terms in ascending row order).
    fn duals(&self, y: &mut [f64]) {
        let m = self.m;
        y.fill(0.0);
        for i in 0..m {
            let cb = self.cost[self.basis[i]];
            if cb != 0.0 {
                for (yk, &v) in y.iter_mut().zip(&self.binv[i * m..(i + 1) * m]) {
                    *yk += cb * v;
                }
            }
        }
    }

    /// Reduced cost `c_j − yᵀ a_j`.
    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.cost[j];
        for &(r, v) in &self.cols[j] {
            d -= y[r] * v;
        }
        d
    }

    /// FTRAN: `w = B⁻¹ a_j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for &(r, v) in &self.cols[j] {
            if v != 0.0 {
                for i in 0..m {
                    w[i] += self.binv[i * m + r] * v;
                }
            }
        }
        w
    }

    /// Eta update of `B⁻¹` for a pivot on row `r`, where `w = B⁻¹ a_j` is
    /// the entering column.
    fn update_inverse(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let piv = w[r];
        let (head, tail) = self.binv.split_at_mut(r * m);
        let (row_r, rest) = tail.split_at_mut(m);
        for v in row_r.iter_mut() {
            *v /= piv;
        }
        for (i, chunk) in head.chunks_exact_mut(m).enumerate() {
            let f = w[i];
            if f != 0.0 {
                for (c, rr) in chunk.iter_mut().zip(row_r.iter()) {
                    *c -= f * rr;
                }
            }
        }
        for (off, chunk) in rest.chunks_exact_mut(m).enumerate() {
            let f = w[r + 1 + off];
            if f != 0.0 {
                for (c, rr) in chunk.iter_mut().zip(row_r.iter()) {
                    *c -= f * rr;
                }
            }
        }
    }

    /// Runs the primal simplex on the current cost vector until optimality.
    fn optimize(&mut self) -> Result<LpPhase, Stop> {
        let m = self.m;
        let mut y = vec![0.0; m];
        loop {
            self.tick()?;
            self.duals(&mut y);

            // Pricing.
            let mut entering: Option<(usize, f64, i8)> = None; // (var, |d|, dir)
            for j in 0..self.total {
                let st = self.state[j];
                if matches!(st, VarState::Basic(_)) {
                    continue;
                }
                if self.upper[j] - self.lower[j] <= 0.0 {
                    continue; // fixed (includes locked artificials)
                }
                let d = self.reduced_cost(j, &y);
                let cand: Option<i8> = match st {
                    VarState::AtLower if d < -DUAL_TOL => Some(1),
                    VarState::AtUpper if d > DUAL_TOL => Some(-1),
                    VarState::FreeZero if d < -DUAL_TOL => Some(1),
                    VarState::FreeZero if d > DUAL_TOL => Some(-1),
                    _ => None,
                };
                if let Some(dir) = cand {
                    let score = d.abs();
                    if self.bland {
                        entering = Some((j, score, dir));
                        break;
                    }
                    if entering.is_none_or(|(_, s, _)| score > s) {
                        entering = Some((j, score, dir));
                    }
                }
            }
            let Some((j, _, dir)) = entering else {
                return Ok(LpPhase::Optimal);
            };
            let dir = dir as f64;
            let w = self.ftran(j);

            // Ratio test, pass 1: minimum ratio.
            let own_range = self.upper[j] - self.lower[j]; // may be inf
            let mut theta = own_range;
            for i in 0..m {
                let k = self.basis[i];
                let delta = -dir * w[i];
                if delta > PIVOT_TOL {
                    if self.upper[k].is_finite() {
                        let lim = ((self.upper[k] - self.xval[k]) / delta).max(0.0);
                        if lim < theta {
                            theta = lim;
                        }
                    }
                } else if delta < -PIVOT_TOL && self.lower[k].is_finite() {
                    let lim = ((self.lower[k] - self.xval[k]) / delta).max(0.0);
                    if lim < theta {
                        theta = lim;
                    }
                }
            }
            if theta.is_infinite() {
                return Ok(LpPhase::Unbounded);
            }
            // Pass 2: among rows within tolerance of theta, largest pivot.
            let mut leave: Option<(usize, bool)> = None; // (row, hits_upper)
            let mut best_piv = 0.0;
            for i in 0..m {
                let k = self.basis[i];
                let delta = -dir * w[i];
                if delta > PIVOT_TOL {
                    if self.upper[k].is_finite() {
                        let lim = ((self.upper[k] - self.xval[k]) / delta).max(0.0);
                        if lim <= theta + FEAS_TOL && w[i].abs() > best_piv {
                            best_piv = w[i].abs();
                            leave = Some((i, true));
                            theta = theta.min(lim);
                        }
                    }
                } else if delta < -PIVOT_TOL && self.lower[k].is_finite() {
                    let lim = ((self.lower[k] - self.xval[k]) / delta).max(0.0);
                    if lim <= theta + FEAS_TOL && w[i].abs() > best_piv {
                        best_piv = w[i].abs();
                        leave = Some((i, false));
                        theta = theta.min(lim);
                    }
                }
            }
            let bound_flip = own_range <= theta + FEAS_TOL && own_range.is_finite();

            // Degeneracy bookkeeping.
            if theta <= 1e-10 {
                self.degen_run += 1;
                if self.degen_run > DEGEN_LIMIT {
                    self.bland = true;
                }
            } else {
                self.degen_run = 0;
            }

            // Apply the step.
            let step = dir * theta;
            if step != 0.0 {
                for i in 0..m {
                    if w[i] != 0.0 {
                        let k = self.basis[i];
                        self.xval[k] -= w[i] * step;
                    }
                }
                self.xval[j] += step;
            }

            let Some((r, hits_upper)) = leave.filter(|_| !bound_flip) else {
                // The entering variable traverses to its opposite bound.
                self.state[j] = match self.state[j] {
                    VarState::AtLower => {
                        self.xval[j] = self.upper[j];
                        VarState::AtUpper
                    }
                    VarState::AtUpper => {
                        self.xval[j] = self.lower[j];
                        VarState::AtLower
                    }
                    other => other, // free: cannot bound-flip
                };
                continue;
            };
            if w[r].abs() < PIVOT_TOL {
                return Err(IlpError::Internal("pivot element vanished").into());
            }
            let k_leave = self.basis[r];
            self.xval[k_leave] = if hits_upper {
                self.upper[k_leave]
            } else {
                self.lower[k_leave]
            };
            self.update_inverse(r, &w);
            self.basis[r] = j;
            self.state[j] = VarState::Basic(r);
            self.state[k_leave] = if hits_upper {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            if k_leave >= self.art0 {
                // An artificial that leaves the basis never returns.
                self.lower[k_leave] = 0.0;
                self.upper[k_leave] = 0.0;
                self.xval[k_leave] = 0.0;
                self.state[k_leave] = VarState::AtLower;
            }
        }
    }

    /// Bounded dual simplex: from a dual feasible basis, pivots basic
    /// variables outside their bounds out at the violated bound until the
    /// point is primal feasible (`Ok(true)`) or a row proves the LP
    /// infeasible (`Ok(false)`). A start needing more pivots than the LP has
    /// rows and columns is handed back as a failure, to be solved cold.
    fn dual_optimize(&mut self) -> Result<bool, Stop> {
        let m = self.m;
        let limit = self.iterations + m + self.total;
        let mut y = vec![0.0; m];
        // An infeasibility verdict or a doubtful pivot is only acted on
        // with a freshly factorized B⁻¹ (`warm` has just built one).
        let mut fresh = true;
        loop {
            self.tick()?;
            if self.iterations > limit {
                return Err(IlpError::IterationLimit.into());
            }
            fresh |= self.iterations.is_multiple_of(REFACTOR_EVERY);

            // Leaving row: the basic variable farthest outside its bounds.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, to_upper)
            for (i, &k) in self.basis.iter().enumerate() {
                let x = self.xval[k];
                let (viol, to_upper) = if x < self.lower[k] - FEAS_TOL {
                    (self.lower[k] - x, false)
                } else if x > self.upper[k] + FEAS_TOL {
                    (x - self.upper[k], true)
                } else {
                    continue;
                };
                if leave.is_none_or(|(_, v, _)| viol > v) {
                    leave = Some((i, viol, to_upper));
                }
            }
            let Some((r, viol, to_upper)) = leave else {
                return Ok(true);
            };

            // Row r of B⁻¹A over the nonbasic columns that can push x_B[r]
            // toward its violated bound: x_B[r] = β_r − Σ α_j x_j, so raising
            // it takes x_j up where α_j < 0 or down where α_j > 0.
            self.duals(&mut y);
            let row = &self.binv[r * m..(r + 1) * m];
            let mut cands: Vec<(usize, f64, f64)> = Vec::new(); // (column, |d_j|, α_j)
            let mut undecided = false;
            for j in 0..self.total {
                let st = self.state[j];
                let range = self.upper[j] - self.lower[j];
                if matches!(st, VarState::Basic(_)) || range <= 0.0 {
                    continue;
                }
                let mut a = 0.0;
                for &(i, v) in &self.cols[j] {
                    a += row[i] * v;
                }
                let up_helps = (a < 0.0) != to_upper;
                let usable = a != 0.0
                    && match st {
                        VarState::AtLower => up_helps,
                        VarState::AtUpper => !up_helps,
                        _ => true,
                    };
                if !usable {
                    continue;
                }
                if a.abs() <= PIVOT_TOL {
                    // Too small to pivot on, yet it might close the gap.
                    undecided |= a.abs() * range >= viol - FEAS_TOL;
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let d = match st {
                    VarState::AtLower => d.max(0.0),
                    VarState::AtUpper => (-d).max(0.0),
                    _ => d.abs(),
                };
                cands.push((j, d, a));
            }
            if cands.is_empty() {
                if !fresh {
                    self.refactorize()?;
                    self.refresh_basics();
                    fresh = true;
                    continue;
                }
                if undecided {
                    return Err(IlpError::Internal("dual ratio test undecided").into());
                }
                return Ok(false);
            }
            // Harris two-pass ratio test: the longest dual step that keeps
            // every reduced cost within DUAL_TOL of feasible, then the
            // largest |α| among the columns whose exact ratio fits under it.
            let (mut q, mut alpha, mut bound) = (usize::MAX, 0.0f64, f64::INFINITY);
            for &(j, d, a) in &cands {
                let ratio = (d + DUAL_TOL) / a.abs();
                if ratio < bound {
                    (q, alpha, bound) = (j, a, ratio);
                }
            }
            for &(j, d, a) in &cands {
                if d / a.abs() <= bound && a.abs() > alpha.abs() {
                    (q, alpha) = (j, a);
                }
            }

            let w = self.ftran(q);
            let piv = w[r];
            if piv.abs() < PIVOT_TOL || (piv - alpha).abs() > 1e-6 * (1.0 + alpha.abs()) {
                // B⁻¹'s row and column disagree on the pivot: drift.
                if fresh {
                    return Err(IlpError::Internal("dual pivot element unstable").into());
                }
                self.refactorize()?;
                self.refresh_basics();
                fresh = true;
                continue;
            }
            let k = self.basis[r];
            let target = if to_upper {
                self.upper[k]
            } else {
                self.lower[k]
            };
            let theta = (self.xval[k] - target) / piv;
            for i in 0..m {
                if w[i] != 0.0 {
                    let kb = self.basis[i];
                    self.xval[kb] -= theta * w[i];
                }
            }
            self.xval[q] += theta;
            self.xval[k] = target;
            self.update_inverse(r, &w);
            self.basis[r] = q;
            self.state[q] = VarState::Basic(r);
            self.state[k] = if to_upper {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            fresh = false;
        }
    }

    /// Drives basic artificials out of the basis after phase 1, locking
    /// redundant rows' artificials at zero.
    fn purge_artificials(&mut self) -> Result<(), Stop> {
        let m = self.m;
        for r in 0..m {
            if self.basis[r] < self.art0 {
                continue;
            }
            self.check_deadline()?;
            // Try to find a non-artificial, non-fixed nonbasic column with a
            // nonzero tableau entry in row r.
            let mut found = None;
            for j in 0..self.art0 {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                let mut t = 0.0;
                for &(i, v) in &self.cols[j] {
                    t += self.binv[r * m + i] * v;
                }
                if t.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            let Some(j) = found else {
                // Redundant row: pin the artificial to zero forever.
                let a = self.basis[r];
                self.lower[a] = 0.0;
                self.upper[a] = 0.0;
                continue;
            };
            // Degenerate pivot: artificial sits at 0, so values don't move.
            let w = self.ftran(j);
            if w[r].abs() < 1e-9 {
                continue;
            }
            let a_leave = self.basis[r];
            self.update_inverse(r, &w);
            self.basis[r] = j;
            self.state[j] = VarState::Basic(r);
            self.state[a_leave] = VarState::AtLower;
            self.xval[a_leave] = 0.0;
        }
        Ok(())
    }

    /// Two-phase solve from the all-artificial basis of [`Simplex::cold`].
    fn solve_cold(&mut self, lp: &LpForm, conservative: bool) -> Result<LpOutcome, Stop> {
        self.bland = conservative;

        // Phase 1: minimize the sum of artificials.
        let needs_phase1 = (0..self.m).any(|i| self.xval[self.art0 + i] > FEAS_TOL);
        if needs_phase1 {
            for i in 0..self.m {
                self.cost[self.art0 + i] = 1.0;
            }
            if let LpPhase::Unbounded = self.optimize()? {
                return Err(IlpError::Internal("phase 1 unbounded").into());
            }
            // Clean the factorization before judging feasibility, so drift
            // cannot cause a spurious "infeasible".
            self.refactorize()?;
            self.refresh_basics();
            let infeas: f64 = (0..self.m).map(|i| self.xval[self.art0 + i].max(0.0)).sum();
            let bmax = self.b.iter().map(|v| v.abs()).fold(0.0, f64::max);
            if infeas > 1e-6 * (1.0 + bmax) {
                return Ok(LpOutcome::Infeasible);
            }
            self.purge_artificials()?;
        }
        // Lock artificials for phase 2.
        for i in 0..self.m {
            let a = self.art0 + i;
            self.lower[a] = 0.0;
            self.upper[a] = 0.0;
            self.cost[a] = 0.0;
            if !matches!(self.state[a], VarState::Basic(_)) {
                self.xval[a] = 0.0;
                self.state[a] = VarState::AtLower;
            }
        }

        // Phase 2: the real objective.
        self.set_objective(&lp.obj);
        self.bland = conservative;
        self.degen_run = 0;
        if let LpPhase::Unbounded = self.optimize()? {
            return Ok(LpOutcome::Unbounded);
        }
        self.finish(lp)
    }

    /// Dual simplex back to feasibility from the basis of
    /// [`Simplex::warm`], then primal simplex to optimality.
    fn solve_warm(&mut self, lp: &LpForm) -> Result<LpOutcome, Stop> {
        if !self.dual_optimize()? {
            return Ok(LpOutcome::Infeasible);
        }
        if let LpPhase::Unbounded = self.optimize()? {
            return Ok(LpOutcome::Unbounded);
        }
        self.finish(lp)
    }

    /// Verifies the final point — recomputed from a fresh factorization if
    /// eta drift makes it miss; a point that still misses fails the whole
    /// attempt — and reads it back in model units.
    fn finish(&mut self, lp: &LpForm) -> Result<LpOutcome, Stop> {
        self.refresh_basics();
        if self.primal_violation() > 1e-6 {
            self.refactorize()?;
            self.refresh_basics();
            if self.primal_violation() > 1e-6 {
                return Err(IlpError::IterationLimit.into());
            }
        }
        let x: Vec<f64> = self.xval[..lp.n]
            .iter()
            .zip(&self.col_scale)
            .map(|(v, s)| v * s)
            .collect();
        let obj: f64 = lp.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        let basis = Basis {
            heads: self.basis.clone(),
            at_upper: self.state[..self.art0]
                .iter()
                .map(|s| *s == VarState::AtUpper)
                .collect(),
        };
        Ok(LpOutcome::Optimal {
            x,
            obj,
            iterations: self.iterations,
            basis,
        })
    }
}

enum LpPhase {
    Optimal,
    Unbounded,
}

/// Solves an LP cold with the two-phase bounded simplex.
pub fn solve_lp(lp: &LpForm) -> Result<LpOutcome, IlpError> {
    resolve_lp(lp, None, None).map(|run| run.outcome)
}

/// Solves `lp`, restarting from `start` — the optimal basis of an LP with
/// the same rows and columns — when one is given, and ending with
/// [`LpOutcome::TimeLimit`] once `deadline` passes (checked on every
/// pivot).
///
/// A warm solve that fails numerically falls back to the cold one. A cold
/// solve whose final point fails verification is retried from scratch with
/// Bland's rule from the first pivot (slower, but drift-resistant: fewer
/// huge-step pivots on degenerate paths).
pub fn resolve_lp(
    lp: &LpForm,
    start: Option<&Basis>,
    deadline: Option<Instant>,
) -> Result<LpRun, IlpError> {
    debug_assert_eq!(lp.cols.len(), lp.n);
    debug_assert_eq!(lp.lower.len(), lp.n);
    debug_assert_eq!(lp.upper.len(), lp.n);
    debug_assert_eq!(lp.obj.len(), lp.n);
    debug_assert_eq!(lp.cmps.len(), lp.rhs.len());

    let run = |outcome, iterations, warm| {
        Ok(LpRun {
            outcome,
            iterations,
            warm,
        })
    };
    // Quick infeasibility: crossed bounds.
    if (0..lp.n).any(|j| lp.lower[j] > lp.upper[j] + FEAS_TOL) {
        return run(LpOutcome::Infeasible, 0, start.is_some());
    }

    let mut iterations = 0;
    if let Some(start) = start {
        let result = Simplex::warm(lp, start, deadline).and_then(|mut s| {
            let out = s.solve_warm(lp);
            iterations += s.iterations;
            out
        });
        match result {
            Ok(outcome) => return run(outcome, iterations, true),
            Err(Stop::Deadline) => return run(LpOutcome::TimeLimit, iterations, true),
            Err(Stop::Failed(_)) => {} // solved cold below
        }
    }
    let mut last_err = IlpError::IterationLimit;
    for conservative in [false, true] {
        let mut s = Simplex::cold(lp, deadline);
        let result = s.solve_cold(lp, conservative);
        iterations += s.iterations;
        match result {
            Ok(outcome) => return run(outcome, iterations, false),
            Err(Stop::Deadline) => return run(LpOutcome::TimeLimit, iterations, false),
            Err(Stop::Failed(e)) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(
        n: usize,
        cols: Vec<Vec<(usize, f64)>>,
        cmps: Vec<Cmp>,
        rhs: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        obj: Vec<f64>,
    ) -> LpForm {
        LpForm {
            n,
            cols,
            cmps,
            rhs,
            lower,
            upper,
            obj,
        }
    }

    fn assert_opt(out: LpOutcome, want_obj: f64, want_x: Option<&[f64]>) {
        match out {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!(
                    (obj - want_obj).abs() < 1e-6,
                    "objective {obj} != expected {want_obj} (x = {x:?})"
                );
                if let Some(wx) = want_x {
                    for (i, (&got, &want)) in x.iter().zip(wx).enumerate() {
                        assert!((got - want).abs() < 1e-6, "x[{i}] = {got}, want {want}");
                    }
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max_as_min() {
        // max 3x+2y st x+y<=4, x+3y<=6, x,y>=0 → min -(3x+2y), opt at (4,0).
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]],
            vec![Cmp::Le, Cmp::Le],
            vec![4.0, 6.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-3.0, -2.0],
        ))
        .unwrap();
        assert_opt(out, -12.0, Some(&[4.0, 0.0]));
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x+y st x+y=2, x>=0.5 → obj 2.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0)]],
            vec![Cmp::Eq, Cmp::Ge],
            vec![2.0, 0.5],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![1.0, 1.0],
        ))
        .unwrap();
        // Column layout: var0 appears in row0 only; var1 in rows 0 and 1.
        assert_opt(out, 2.0, None);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let out = solve_lp(&lp(
            1,
            vec![vec![(0, 1.0), (1, 1.0)]],
            vec![Cmp::Le, Cmp::Ge],
            vec![1.0, 2.0],
            vec![0.0],
            vec![f64::INFINITY],
            vec![0.0],
        ))
        .unwrap();
        assert!(matches!(out, LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x st x >= 0 (no upper bound).
        let out = solve_lp(&lp(
            1,
            vec![vec![(0, 1.0)]],
            vec![Cmp::Ge],
            vec![0.0],
            vec![0.0],
            vec![f64::INFINITY],
            vec![-1.0],
        ))
        .unwrap();
        assert!(matches!(out, LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds_via_bound_flip() {
        // min -x - y st x + y <= 10, x <= 3, y <= 4 (bounds, not rows).
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            vec![Cmp::Le],
            vec![10.0],
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![-1.0, -1.0],
        ))
        .unwrap();
        assert_opt(out, -7.0, Some(&[3.0, 4.0]));
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 (bound) and x + y = 0, y <= 2 → x = -2? No:
        // x = -y, y ∈ [0,2] minimizing x → y=2, x=-2.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            vec![Cmp::Eq],
            vec![0.0],
            vec![-5.0, 0.0],
            vec![f64::INFINITY, 2.0],
            vec![1.0, 0.0],
        ))
        .unwrap();
        assert_opt(out, -2.0, Some(&[-2.0, 2.0]));
    }

    #[test]
    fn free_variable() {
        // min x st x + y >= 3, y <= 1, x free → x = 2.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            vec![Cmp::Ge],
            vec![3.0],
            vec![f64::NEG_INFINITY, 0.0],
            vec![f64::INFINITY, 1.0],
            vec![1.0, 0.0],
        ))
        .unwrap();
        assert_opt(out, 2.0, Some(&[2.0, 1.0]));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let out = solve_lp(&lp(
            2,
            vec![
                vec![(0, 1.0), (1, 1.0), (2, 2.0)],
                vec![(0, 1.0), (1, 2.0), (2, 2.0)],
            ],
            vec![Cmp::Le, Cmp::Le, Cmp::Le],
            vec![1.0, 1.0, 2.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-1.0, -1.0],
        ))
        .unwrap();
        assert_opt(out, -1.0, None);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 1 stated twice (rank-deficient) — phase 1 must cope.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![Cmp::Eq, Cmp::Eq],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![2.0, 1.0],
        ))
        .unwrap();
        assert_opt(out, 1.0, Some(&[0.0, 1.0]));
    }

    #[test]
    fn empty_constraint_set() {
        // min x with x in [1, 5], no rows.
        let out = solve_lp(&lp(
            1,
            vec![vec![]],
            vec![],
            vec![],
            vec![1.0],
            vec![5.0],
            vec![1.0],
        ))
        .unwrap();
        assert_opt(out, 1.0, Some(&[1.0]));
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            vec![Cmp::Le],
            vec![5.0],
            vec![2.0, 0.0],
            vec![2.0, f64::INFINITY],
            vec![0.0, -1.0],
        ))
        .unwrap();
        // x fixed at 2, so y = 3 maximizes.
        assert_opt(out, -3.0, Some(&[2.0, 3.0]));
    }

    #[test]
    fn badly_scaled_rows() {
        // Same geometry as textbook test, but one row scaled by 1e6.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1e6), (1, 1.0)], vec![(0, 1e6), (1, 3.0)]],
            vec![Cmp::Le, Cmp::Le],
            vec![4e6, 6.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-3.0, -2.0],
        ))
        .unwrap();
        assert_opt(out, -12.0, Some(&[4.0, 0.0]));
    }

    /// Re-solves `lp` with one variable's bounds replaced, warm from `basis`
    /// and cold.
    fn warm_and_cold(
        lp: &LpForm,
        basis: &Basis,
        var: usize,
        lo: f64,
        hi: f64,
    ) -> (LpRun, LpOutcome) {
        let mut child = lp.clone();
        child.lower[var] = lo;
        child.upper[var] = hi;
        let warm = resolve_lp(&child, Some(basis), None).unwrap();
        (warm, solve_lp(&child).unwrap())
    }

    fn optimal_basis(out: LpOutcome) -> (Vec<f64>, Basis) {
        match out {
            LpOutcome::Optimal { x, basis, .. } => (x, basis),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn warm_restart_after_branching_matches_cold() {
        // max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6: LP optimum (3, 1.5).
        let lp = lp(
            2,
            vec![vec![(0, 6.0), (1, 1.0)], vec![(0, 4.0), (1, 2.0)]],
            vec![Cmp::Le, Cmp::Le],
            vec![24.0, 6.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-5.0, -4.0],
        );
        let (x, basis) = optimal_basis(solve_lp(&lp).unwrap());
        assert!((x[1] - 1.5).abs() < 1e-9);
        for (lo, hi) in [(0.0, 1.0), (2.0, f64::INFINITY)] {
            let (warm, cold) = warm_and_cold(&lp, &basis, 1, lo, hi);
            assert!(warm.warm, "the dual simplex handles a single bound change");
            let LpOutcome::Optimal { obj: want, .. } = cold else {
                panic!("cold child {cold:?}")
            };
            assert_opt(warm.outcome, want, None);
        }
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        // min x + 2y st x + y = 1.5, x, y in [0, 1]: optimum (1, 0.5).
        // Branching y <= 0 leaves x + y <= 1 < 1.5.
        let lp = lp(
            2,
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            vec![Cmp::Eq],
            vec![1.5],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
        );
        let (x, basis) = optimal_basis(solve_lp(&lp).unwrap());
        assert!((x[1] - 0.5).abs() < 1e-9);
        let (warm, cold) = warm_and_cold(&lp, &basis, 1, 0.0, 0.0);
        assert!(warm.warm);
        assert!(matches!(warm.outcome, LpOutcome::Infeasible));
        assert!(matches!(cold, LpOutcome::Infeasible));
    }

    #[test]
    fn passed_deadline_returns_time_limit() {
        let lp = lp(
            2,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]],
            vec![Cmp::Le, Cmp::Ge],
            vec![4.0, 6.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-3.0, -2.0],
        );
        let run = resolve_lp(&lp, None, Some(Instant::now())).unwrap();
        assert!(matches!(run.outcome, LpOutcome::TimeLimit));
        assert!(run.iterations <= 1);
    }

    #[test]
    fn tiny_column_is_priced_after_column_scaling() {
        // min m st 1e8·u − m <= 0, u >= 0.5, u in [0, 1], m >= 0. Row
        // scaling shrinks m's only coefficient to ~7e-9, below the pricing
        // tolerance; column scaling brings it back to 1.
        let out = solve_lp(&lp(
            2,
            vec![vec![(0, 1e8), (1, 1.0)], vec![(0, -1.0)]],
            vec![Cmp::Le, Cmp::Ge],
            vec![0.0, 0.5],
            vec![0.0, 0.0],
            vec![1.0, f64::INFINITY],
            vec![0.0, 1.0],
        ))
        .unwrap();
        assert_opt(out, 5e7, Some(&[0.5, 5e7]));
    }

    #[test]
    fn negative_rhs_rows() {
        // min x st -x <= -3  (i.e. x >= 3).
        let out = solve_lp(&lp(
            1,
            vec![vec![(0, -1.0)]],
            vec![Cmp::Le],
            vec![-3.0],
            vec![0.0],
            vec![f64::INFINITY],
            vec![1.0],
        ))
        .unwrap();
        assert_opt(out, 3.0, Some(&[3.0]));
    }
}
