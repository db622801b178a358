"""Candidate evaluation: the QR oracle, the cross-product screen, seeding.

``evaluate_config`` scores one configuration by pivoted QR and never
raises for a bad candidate, so the invalid-candidate convention (value
+inf) is the same everywhere.  ``CrossProductEvaluator`` scores the
candidates of one search from one cross-product matrix built once per
search, and calls ``evaluate_config`` wherever its own value could decide
something differently from QR.  ``derive_candidate_seed`` gives each
logical random stream a seed that depends only on (master seed, stream
id), never on call order.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.linalg import lapack

from ..criteria import CriterionKind, criterion_from_log_det
from ..errors import NumericOverflowError, RankDeficientError, ValidationError
from ..model import ModelConfig, TimeSeriesDataset, structural_violations
from ..ols import DEGENERATE_RTOL, RANK_RTOL, fit

__all__ = ["derive_candidate_seed", "evaluate_config", "CrossProductEvaluator"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# unit roundoff of float64
_UNIT = np.finfo(float).eps / 2

# A screened value whose error bound exceeds this is certified by QR.
VALUE_TOLERANCE = 1e-9

# Multiple of the modelled rounding error taken as the bound.  On seeded
# VAR data, random walks and data scaled or offset by large factors, the
# largest ratio of the observed |screened - QR| to the unmultiplied model
# was 0.29.
_SAFETY = 8.0

# First-order error analysis is trusted only while the perturbation of the
# scaled design cross products stays this small relative to their smallest
# eigenvalue.
_FIRST_ORDER_LIMIT = 1e-2


def derive_candidate_seed(master_seed: int, stream_id: int) -> int:
    """Decorrelated 64-bit seed for one logical stream.

    SplitMix64 finalizer applied to ``master_seed XOR stream_id * gamma``,
    all arithmetic mod 2**64.  The same (master_seed, stream_id) pair
    always yields the same seed regardless of call order.
    """
    z = (master_seed ^ ((stream_id * _GAMMA) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def evaluate_config(
    ds: TimeSeriesDataset,
    cfg: ModelConfig,
    kind: CriterionKind,
    common_row_start: int | None = None,
):
    """Score one configuration by pivoted QR; never raises for a bad candidate.

    Returns ``(value, fit_result)``.  Invalid or rank-deficient candidates
    and undefined criteria come back as ``(inf, None)``, so engines can
    rank them without special cases.
    """
    try:
        result = fit(ds, cfg, row_start=common_row_start)
    except (ValidationError, RankDeficientError):
        return (math.inf, None)
    value = result.criterion(kind)
    if math.isnan(value):
        return (math.inf, result)
    return (value, result)


class _Intervals:
    """Sorted value intervals of the cached candidates.

    A screened value is stored as its error interval, a QR value as a
    point.  Screened intervals never meet another entry, so the entries
    are ordered by both ends at once.
    """

    def __init__(self):
        self.lows = []
        self.highs = []
        self.entries = []  # (order, cfg); cfg is None for a QR point

    def meets(self, low: float, high: float) -> bool:
        i = bisect.bisect_left(self.lows, low)
        if i > 0 and self.highs[i - 1] >= low:
            return True
        return i < len(self.lows) and self.lows[i] <= high

    def add(self, low: float, high: float, order, cfg) -> None:
        i = bisect.bisect_right(self.lows, low)
        self.lows.insert(i, low)
        self.highs.insert(i, high)
        self.entries.insert(i, (order, cfg))

    def pop_screened_containing(self, value: float):
        """Remove and return the screened entries whose interval holds value."""
        found = []
        i = bisect.bisect_right(self.lows, value) - 1
        while i >= 0 and self.highs[i] >= value:
            if self.entries[i][1] is not None:
                found.append(self.entries[i])
                del self.lows[i], self.highs[i], self.entries[i]
            i -= 1
        return found


class CrossProductEvaluator:
    """Scores the configurations of one search space from one cross product.

    Every candidate of a search is fitted on the same rows, from
    ``space.common_row_start`` on, so its X'X, X'Y and Y'Y are sub-blocks
    of G = Z'Z with Z = [obs(t) | obs(t-1) ... obs(t-L) | 1] and
    L = max(p_max, q_max).  G is built once; a candidate then costs one
    Cholesky factorization of its (K+n) x (K+n) block [X Y]'[X Y], and
    ln det(E'E) = 2 sum ln diag(R_yy), whatever the sample size.

    The normal equations square the conditioning of X, so each screened
    value carries a first-order bound on its distance from the QR value
    of ``evaluate_config``.  QR scores the candidate instead when the
    Cholesky fails; when the condition of X cannot rule out the QR rank
    flag (``RANK_RTOL``) or the residual cannot rule out the perfect-fit
    snap (``DEGENERATE_RTOL``); when the bound exceeds
    ``VALUE_TOLERANCE``; when the candidate could be a new best; and when
    its interval meets the value of another cached candidate, which is
    then refitted by QR too if its own value was screened.  Every
    comparison a search makes therefore comes out as it would on QR
    values, and every best value and its fit come from QR.

    ``values`` maps a candidate's genome order key to ``(value, n_params)``;
    ``n_params`` is inf for a candidate without a fit.

    Raises ``NumericOverflowError`` when the sum of squares of the
    observations overflows float64, as G cannot be formed then.
    """

    def __init__(self, ds: TimeSeriesDataset, space, kind: CriterionKind):
        with np.errstate(over="ignore"):
            sum_squares = np.einsum("ij,ij->", ds.observations, ds.observations)
        if not math.isfinite(sum_squares):
            raise NumericOverflowError()
        self.ds = ds
        self.kind = kind
        self.row_start = space.common_row_start
        self.effective_t = ds.n_obs - self.row_start
        self.values = {}
        self.qr_fits = 0
        self._intervals = _Intervals()
        self._gram = None
        if self.effective_t >= 1:
            self._build(ds.observations, min(self.row_start, self.effective_t - 1))

    def _build(self, obs: np.ndarray, max_lag: int) -> None:
        """G on data shifted by its column means, rows summed in chunks.

        Chunks of about sqrt(T') rows bound every entry's rounding error by
        (chunk + chunks) * u * sum|z_i z_j| whatever order the BLAS sums
        in, about 2 sqrt(T') roundings instead of T'.  Only one chunk of Z
        exists at a time.
        """
        t_total, m = obs.shape
        self._shift = obs.mean(axis=0)
        shifted = obs - self._shift
        width = m * (max_lag + 1) + 1
        chunk = max(1, math.isqrt(self.effective_t))
        gram = np.zeros((width, width))
        block = np.empty((chunk, width))
        block[:, -1] = 1.0
        # entries that overflow make their candidates fall back to QR
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(self.row_start, t_total, chunk):
                rows = min(chunk, t_total - r0)
                part = block[:rows]
                for lag in range(max_lag + 1):
                    part[:, lag * m : (lag + 1) * m] = shifted[r0 - lag : r0 - lag + rows]
                gram += part.T @ part
        n_chunks = -(-self.effective_t // chunk)
        self._gram = gram
        # roundings per entry: the two sums, plus slack for the shift
        self._gram_terms = chunk + n_chunks + 4
        rows = obs[self.row_start :]
        self._y_norm2 = np.einsum("ij,ij->j", rows, rows)

    def evaluate(self, cfg: ModelConfig, order, best_value):
        """Score one fresh candidate; ``best_value`` is None before any.

        Returns ``(value, n_params, fit_result)``; ``fit_result`` is the
        QR fit when QR scored the candidate, else None.
        """
        k = cfg.n_design_columns()
        if (
            structural_violations(cfg, self.ds, row_start=self.row_start)
            or self.effective_t <= k
        ):
            self.values[order] = (math.inf, math.inf)
            return math.inf, math.inf, None
        screened = self._screen(cfg, k) if best_value is not None else None
        if screened is not None:
            value, bound = screened
            low, high = value - bound, value + bound
            if low > best_value and not self._intervals.meets(low, high):
                n_params = cfg.n_dependent * k
                self.values[order] = (value, n_params)
                self._intervals.add(low, high, order, cfg)
                return value, n_params, None
        value, fit_result = self._certify(cfg, order)
        if math.isfinite(value):
            for other_order, other_cfg in self._intervals.pop_screened_containing(value):
                self._certify(other_cfg, other_order)
        return value, self.values[order][1], fit_result

    def _certify(self, cfg: ModelConfig, order):
        value, fit_result = evaluate_config(self.ds, cfg, self.kind, self.row_start)
        self.qr_fits += 1
        n_params = fit_result.n_params if fit_result is not None else math.inf
        self.values[order] = (value, n_params)
        if math.isfinite(value):
            self._intervals.add(value, value, order, None)
        return value, fit_result

    def _columns(self, cfg: ModelConfig):
        m = self.ds.n_vars
        dep = cfg.dependent_indices
        indep = cfg.independent_indices if cfg.q > 0 else ()
        x = [lag * m + a for lag in range(1, cfg.p + 1) for a in dep]
        x += [lag * m + a for lag in range(1, cfg.q + 1) for a in indep]
        return x, list(dep)

    def _screen(self, cfg: ModelConfig, k: int):
        """``(value, bound)`` from the cross products, or None if they cannot tell."""
        if self.kind is CriterionKind.HQC and self.effective_t <= math.e:
            return None
        x, y = self._columns(cfg)
        n = len(y)
        gram = self._gram
        const = gram.shape[0] - 1
        m = self.ds.n_vars
        root_t = math.sqrt(self.effective_t)
        mean_x = self._shift[[i % m for i in x]]
        if cfg.include_constant:
            # a shift of the data leaves the residuals of a model with a
            # constant unchanged; the constant goes first so the raw and
            # shifted factors of X differ in row 0 only
            idx = [const] + x + y
            block = gram[np.ix_(idx, idx)]
            spread = None
        else:
            # undo the shift: raw column = shifted column + mean * 1
            idx = x + y
            mean = self._shift[[i % m for i in idx]]
            base = gram[np.ix_(idx, idx)]
            cross = np.outer(gram[idx, const], mean)
            block = base + cross + cross.T + self.effective_t * np.outer(mean, mean)
            spread = np.sqrt(np.diag(base)) + root_t * np.abs(mean)
        if not np.all(np.isfinite(block)):
            return None
        scale = np.sqrt(np.diag(block))
        if not np.all(scale > 0.0):
            return None
        r, info = lapack.dpotrf(block)
        if info != 0:
            return None
        # QR flags rank when a pivoted diagonal falls below RANK_RTOL times
        # its column's norm, and every such ratio is at least
        # 1 / cond_2(X D^-1) >= 1 / (K cond_1(R D^-1)), D the column norms
        r_raw = r[:k, :k]
        if cfg.include_constant:
            r_raw = r_raw.copy()
            r_raw[0, 1:] += r[0, 0] * mean_x
        rcond, _ = lapack.dtrcon(r_raw / np.linalg.norm(r_raw, axis=0))
        if not rcond > 10.0 * k * RANK_RTOL:
            return None
        r_yy = r[k:, k:]
        y_norm = np.sqrt(self._y_norm2[y])
        if np.sum(r_yy * r_yy) <= (2.0 * DEGENERATE_RTOL) ** 2 * np.sum(y_norm**2):
            return None
        # magnitudes of the raw columns of X, for the QR residual's rounding
        x_norm = scale[:k].copy()
        intercept = None
        if cfg.include_constant:
            x_norm[1:] += root_t * np.abs(mean_x)
            intercept = (mean_x, self._shift[y])
        bound = self._bound(r, scale, k, spread, x_norm, y_norm, intercept)
        if bound is None or bound > VALUE_TOLERANCE:
            return None
        log_det = 2.0 * float(np.sum(np.log(np.abs(np.diag(r_yy))))) - n * math.log(
            self.effective_t
        )
        value = criterion_from_log_det(self.kind, log_det, n * k, self.effective_t)
        return value, bound + 8.0 * _UNIT * (abs(value) + abs(log_det) + n)

    def _bound(self, r, scale, k, spread, x_norm, y_norm, intercept):
        """Bound on |screened value - QR value| from first-order analysis, or None.

        With column scaling, R~ = R / scale has unit-norm columns.  A
        perturbation D of the scaled cross products moves ln det of the
        residual block by sum_ij D_ij (U U')_ij to first order, where
        U = [-W; I] R~_yy^-1 and W = R~_xx^-1 R~_xy are the scaled
        coefficients.  The rounding errors of the chunked sums and of the
        Cholesky factorization are modelled as independent with size
        u * s_i s_j per term (Higham & Mary, SIAM J. Sci. Comput. 41, 2019),
        which gives u * sqrt(terms) * ||S U U' S||_F; s_i is 1 unless the
        block was unshifted (``spread``).  The QR value's own rounding, in
        E'E and in forming E = Y - X B term by term, is added, and the sum is
        multiplied by ``_SAFETY``.
        """
        n = r.shape[0] - k
        rt = r / scale
        r_xx, r_xy, r_yy = rt[:k, :k], rt[:k, k:], rt[k:, k:]
        rcond, _ = lapack.dtrcon(r_xx)
        spread = np.ones(k + n) if spread is None else spread / scale
        terms = self._gram_terms + k + n
        # validity of the first order: the entrywise worst case of the
        # perturbation against ||Axx^-1||_2 <= k ||R~_xx^-1||_1^2
        worst = terms * _UNIT * float(spread.max()) ** 2 * (k + n)
        r_norm = np.abs(r_xx).sum(axis=0).max()
        if not worst * k <= _FIRST_ORDER_LIMIT * (rcond * r_norm) ** 2:
            return None
        w, _ = lapack.dtrtrs(r_xx, r_xy)
        r_yy_inv, _ = lapack.dtrtri(r_yy)
        u = np.vstack([w @ r_yy_inv, r_yy_inv]) * spread[:, None]
        gram_term = math.sqrt(terms) * _UNIT * np.linalg.norm(u.T @ u)
        resid_norms = np.linalg.norm(r_yy, axis=0)
        cov_term = (
            math.sqrt(self.effective_t) * _UNIT
            * np.linalg.norm((r_yy_inv @ r_yy_inv.T) * np.outer(resid_norms, resid_norms))
        )
        theta = w * (scale[k:] / scale[:k, None])
        if intercept is not None:
            mean_x, mean_y = intercept
            theta[0] += mean_y - mean_x @ theta[1:]
        inv_rows = np.linalg.norm(r_yy_inv, axis=1)
        resid_term = 2.0 * (k + 2) * _UNIT * float(
            (inv_rows / scale[k:]) @ (y_norm + x_norm @ np.abs(theta))
        )
        total = _SAFETY * float(gram_term + cov_term + resid_term)
        return total if math.isfinite(total) else None
