"""Candidate evaluation: the QR oracle, the QR-factor screen, seeding.

``evaluate_config`` scores one configuration by pivoted QR and never
raises for a bad candidate, so the invalid-candidate convention (value
+inf) is the same everywhere.  ``CrossProductEvaluator`` scores the
candidates of one search from one triangular factor of all their columns,
built once per search, and calls ``evaluate_config`` wherever its own
value could decide something differently from QR.  ``derive_candidate_seed`` gives each
logical random stream a seed that depends only on (master seed, stream
id), never on call order.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .._lapack import flapack as lapack
from ..criteria import CriterionKind, criterion_from_log_det
from ..design import _lag_window, _window_columns
from ..errors import NumericOverflowError, RankDeficientError, ValidationError
from ..model import ModelConfig, TimeSeriesDataset, structural_violations
from ..ols import RANK_RTOL, fit

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
# VAR data, random walks, the hostile fixtures of the property tests and
# data scaled by 1e8 or 1e-8 or offset by 1e4, the observed
# |screened - QR| never exceeded an eighth of the whole bound.
_SAFETY = 8.0

# Rows of Z per block of the streamed QR factor.
_CHUNK = 1024

# Candidates whose screens are held at once; bounds the memory of a batch.
_HELD = 1024


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
        self.entries = []  # (genome, cfg); cfg is None for a QR point

    def meets(self, low: float, high: float) -> bool:
        i = bisect.bisect_left(self.lows, low)
        if i > 0 and self.highs[i - 1] >= low:
            return True
        return i < len(self.lows) and self.lows[i] <= high

    def add(self, low: float, high: float, genome, cfg) -> None:
        i = bisect.bisect_right(self.lows, low)
        self.lows.insert(i, low)
        self.highs.insert(i, high)
        self.entries.insert(i, (genome, cfg))

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
    """Scores the configurations of one search space from one QR factor.

    Every candidate of a search is fitted on the same rows, from
    ``space.common_row_start`` on, so its design X and targets Y are
    columns of Z = [obs(t) | obs(t-1) ... obs(t-L) | 1] with
    L = max(p_max, q_max); Z's rows and each candidate's columns of Z come
    from the lag window and the column map ``build_regression_system``
    reads.  The triangular factor R of Z is built once; as Z = QR, the
    columns of R for [X Y] have the same triangular factor as [X Y] itself.
    A candidate then costs one Householder QR of its (K+n)-column slice of
    R, which gives R_xx, R_xy and R_yy with E'E = R_yy'R_yy, so
    ln det(E'E) = 2 sum ln |diag(R_yy)| whatever the sample size.
    ``screen_batch`` screens a batch at once, bounds and ln det stacked over
    equal n, and ``evaluate`` then decides its candidates one at a time.
    ``screen_families`` screens a complete enumeration instead, which
    ``exhaustive_search`` hands it: the candidates that share q, roles and
    constant have designs nested in p, so one QR of the widest serves the
    whole family.  The metaheuristics screen per candidate, as their
    batches hold one or two lag orders of a family, and a shared factor
    would make a candidate's screen depend on its batch-mates.

    Householder QR is backward stable column by column, so each screened
    value carries a bound on its distance from the QR value of
    ``evaluate_config``.  QR scores the candidate instead when the factor
    cannot tell: when the condition of X cannot rule out the QR rank flag
    (``RANK_RTOL``); when the bound exceeds ``VALUE_TOLERANCE``, which it
    does wherever the residual could meet the perfect-fit snap; when
    the candidate could be a new best; and when its interval meets the
    value of another cached candidate, which is then refitted by QR too if
    its own value was screened.  Every comparison a search makes therefore
    comes out as it would on QR values, and every best value and its fit
    come from QR.

    ``values`` maps a candidate's genome to ``(value, n_params)``;
    ``n_params`` is inf for a candidate without a fit.

    Raises ``NumericOverflowError`` when the sum of squares of the
    observations overflows float64, as the column norms of Z that the
    screen's tests rest on can overflow then.
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
        self._screens = {}
        if self.effective_t >= 1:
            self._build(ds.observations, min(self.row_start, self.effective_t - 1))

    def _build(self, obs: np.ndarray, max_lag: int) -> None:
        """R of Z, streamed over blocks of ``_CHUNK`` rows.

        Each block of Z is stacked under the R so far and factored again by
        Householder QR, as in TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM
        J. Sci. Comput. 34, 2012).  Only one block of Z exists at a time,
        and the column norms of Z are those of R.
        """
        window = _lag_window(obs, self.row_start, max_lag)
        m, width = obs.shape[1], window[0].size + 1
        factor = stack = np.empty((0, width))
        for r0 in range(0, len(window), _CHUNK):
            rows, top = min(_CHUNK, len(window) - r0), len(factor)
            if len(stack) != top + rows:
                # LAPACK's own layout, so that dgeqrf factors it in place
                stack = np.empty((top + rows, width), order="F")
            stack[:top] = factor
            for lag in range(max_lag + 1):
                stack[top:, lag * m : (lag + 1) * m] = window[r0 : r0 + rows, lag]
            stack[top:, -1] = 1.0
            qr = lapack.dgeqrf(stack, overwrite_a=1)[0]
            factor = np.triu(qr[:width])
        self._columns = np.ascontiguousarray(factor.T)  # row j: column j of R
        # overflowing entries send their candidates to QR, non-finite ones by a nan norm
        with np.errstate(over="ignore", invalid="ignore"):
            self._norms = np.linalg.norm(factor, axis=0)
        self._norms[~np.isfinite(factor).all(axis=0)] = math.nan

    def screen_batch(self, batch) -> None:
        """Screen the fresh candidates ``(genome, cfg)`` of one batch at once,
        each from its own QR of its columns of R."""
        self._screen_into(batch, self._screen)

    def screen_families(self, batch) -> None:
        """``screen_batch`` of a complete enumeration, each lag-order family
        from one QR (see ``_screen_families``)."""
        self._screen_into(batch, self._screen_families)

    def _screen_into(self, batch, screen) -> None:
        widths = {}  # genome -> (cfg, K), K None where least squares cannot fit
        for genome, cfg in batch:
            k = cfg.n_design_columns()
            invalid = structural_violations(cfg, self.ds, row_start=self.row_start)
            widths[genome] = cfg, None if invalid or self.effective_t <= k else k
        screens = zip(widths.items(), screen(list(widths.values())))
        self._screens = {genome: (k, result) for (genome, (_, k)), result in screens}

    def evaluate(self, cfg: ModelConfig, genome, best_value):
        """Score a candidate of the last ``screen_batch``; ``best_value`` is
        None before any.

        Returns ``(value, n_params, fit_result)``; ``fit_result`` is the
        QR fit when QR scored the candidate, else None.
        """
        k, screened = self._screens.pop(genome)
        if k is None:
            self.values[genome] = (math.inf, math.inf)
            return math.inf, math.inf, None
        if screened is not None and best_value is not None:
            value, bound = screened
            low, high = value - bound, value + bound
            if low > best_value and not self._intervals.meets(low, high):
                n_params = cfg.n_dependent * k
                self.values[genome] = (value, n_params)
                self._intervals.add(low, high, genome, cfg)
                return value, n_params, None
        value, fit_result = self._certify(cfg, genome)
        if math.isfinite(value):
            for other, other_cfg in self._intervals.pop_screened_containing(value):
                self._certify(other_cfg, other)
        return value, self.values[genome][1], fit_result

    def _certify(self, cfg: ModelConfig, genome):
        value, fit_result = evaluate_config(self.ds, cfg, self.kind, self.row_start)
        self.qr_fits += 1
        n_params = fit_result.n_params if fit_result is not None else math.inf
        self.values[genome] = (value, n_params)
        if math.isfinite(value):
            self._intervals.add(value, value, genome, None)
        return value, fit_result

    def _undecidable(self, candidates) -> bool:
        """Whether the factor can screen none of the ``(cfg, k)``."""
        if self.kind is CriterionKind.HQC and self.effective_t <= math.e:
            return True  # HQC is undefined
        return all(k is None for _, k in candidates)  # always so when T' < 1

    @np.errstate(over="ignore", invalid="ignore")
    def _screen(self, candidates) -> list:
        """``(value, bound)`` from the factor for each ``(cfg, k)``, or None
        where k is None or the factor cannot tell.

        The LAPACK calls are made per candidate, the bound and ln det
        stacked over equal n (``_bound``).
        """
        if len(candidates) > _HELD:
            half = len(candidates) // 2
            head, tail = candidates[:half], candidates[half:]
            return self._screen(head) + self._screen(tail)
        screens = [None] * len(candidates)
        if self._undecidable(candidates):
            return screens
        width = self._columns.shape[0]  # W
        groups = {}  # n -> [(index, k, R_yy, R_yy^-1, weights, tail rows)]
        for index, (cfg, k) in enumerate(candidates):
            if k is None:
                continue
            # X's columns of Z, the constant last, then Y's, at lag 0
            x, y = _window_columns(cfg, self.ds.n_vars)
            columns, n = x + [width - 1] * cfg.include_constant + y, len(y)
            idx = np.array(columns, dtype=np.intp)
            norms = self._norms[idx]
            # R is upper triangular, so rows past the last selected column are zero
            block = self._columns[idx, : max(columns) + 1].T
            if not norms.min() > 0.0 or block.shape[0] < k + n:  # a nan norm fails
                continue
            # LAPACK reads only the upper triangle of each factor below
            qr = lapack.dgeqrf(block, overwrite_a=1)[0]
            r_xx, r_xy = qr[:k, :k], qr[:k, k : k + n]
            r_yy = qr[k : k + n, k : k + n].copy()  # so that no group keeps qr
            if not _full_rank(r_xx, norms[:k]):
                continue
            coef, _ = lapack.dtrtrs(r_xx, r_xy)
            r_yy_inv, info = lapack.dtrtri(r_yy)
            if info == 0:
                weights = norms[k:] + norms[:k] @ np.abs(coef)
                groups.setdefault(n, []).append((index, k, r_yy, r_yy_inv, weights, 0))
        self._bound(groups, screens)
        return screens

    @np.errstate(over="ignore", invalid="ignore")
    def _screen_families(self, candidates) -> list:
        """``_screen`` of the candidates of a complete enumeration, one QR per
        lag-order family.

        The candidates with the same q, roles and constant form a family
        whose designs are nested in p once X's columns are ordered [1,
        exogenous lags 1..q, endogenous lags 1..p]: X of order p is the
        leading K_p columns of the widest member's X.  One Householder QR of
        the widest member's [X Y] therefore holds every member, as in
        order-recursive least squares (Miller, *Subset Selection in
        Regression*, 2002, ch. 2): R_xx and R_xy of order p are its leading
        K_p rows, and E_p'E_p = R[K_p:, Y]'R[K_p:, Y], so a stacked QR of the
        rows below gives each R_yy.  A screen depends on the family members
        present, which for a complete enumeration is the space alone.
        Families are processed in chunks of about ``_HELD`` candidates,
        never split, so that the screens held at once stay bounded.
        """
        screens = [None] * len(candidates)
        if self._undecidable(candidates):
            return screens
        families = {}  # (q, roles, constant) -> [(index, cfg, k)]
        for index, (cfg, k) in enumerate(candidates):
            if k is not None:
                family = (cfg.q, cfg.dependent_mask, cfg.include_constant)
                families.setdefault(family, []).append((index, cfg, k))
        groups, held = {}, 0
        for members in families.values():
            self._screen_family(members, groups)
            held += len(members)
            if held >= _HELD:
                self._bound(groups, screens)
                groups, held = {}, 0
        self._bound(groups, screens)
        return screens

    def _screen_family(self, members, groups) -> None:
        """Add the screenable members ``(index, cfg, k)`` of one family to
        ``groups`` as ``_screen`` does, from one QR of the widest.

        Every check of ``_screen`` is made per lag order: a zero or nan
        column norm, too few rows of R, the rank test and a singular R_yy.
        By singular-value interlacing, a column subset of X D^-1 is
        conditioned no worse than X D^-1 itself, so one rank test of the
        widest member at its own threshold covers every smaller order; where
        it fails, each order takes its own test.
        """
        width, rows = self._columns.shape  # W, and rows of R: min(T', W)
        widest = max(members, key=lambda m: m[2])[1]
        x, y = _window_columns(widest, self.ds.n_vars)
        n, endogenous = len(y), widest.p * len(y)  # x holds the endogenous lags first
        columns = [width - 1] * widest.include_constant + x[endogenous:] + x[:endogenous]
        norms = self._norms[columns + y]
        # order p needs positive norms up to its K_p-th column (a nan norm fails)
        positive = np.logical_and.accumulate(norms[:-n] > 0.0) & (norms[-n:].min() > 0.0)
        usable = [
            (index, k) for index, _, k in members if positive[k - 1] and k + n <= rows
        ]
        if not usable:
            return
        k_top = max(k for _, k in usable)
        columns = columns[:k_top] + y
        idx = np.array(columns, dtype=np.intp)
        block = self._columns[idx, : max(columns) + 1].T
        qr = lapack.dgeqrf(block, overwrite_a=1)[0]  # its lower triangle is not R's
        norms_x, norms_y = norms[:k_top], norms[-n:]
        ranked = sorted({k for _, k in usable})  # K_p of the lag orders
        if not _full_rank(qr[:k_top, :k_top], norms_x):
            ranked = [k for k in ranked if _full_rank(qr[:k, :k], norms_x[:k])]
            if not ranked:
                return
        # B_p = R_xx^-1 R_xy of order p, R_xx a leading block of the widest
        # ranked order's, solves that triangle with R_xy's rows from K_p on zeroed
        k_solve, ks = ranked[-1], np.array(ranked)
        leading = np.arange(k_solve)[:, None] < ks
        rhs = qr[:k_solve, None, k_top:] * leading[:, :, None]
        coef, _ = lapack.dtrtrs(qr[:k_solve, :k_solve], rhs.reshape(k_solve, -1))
        weights = norms_y + (norms_x[:k_solve] @ np.abs(coef)).reshape(len(ks), n)
        # order p's rows of R below X's, zero-padded, with the Householder
        # vectors under the diagonal of Y's last n rows zeroed
        tail_rows = k_top + n - ks
        below = np.zeros((k_top + n + tail_rows[0], n))
        below[: k_top + n] = qr[: k_top + n, k_top:]
        for j in range(n - 1):
            below[k_top + j + 1 : k_top + n, j] = 0.0
        r_yy = np.linalg.qr(below[ks[:, None] + np.arange(tail_rows[0])], mode="r")
        entries = {}  # K_p -> (R_yy, R_yy^-1, weights, tail rows)
        for k, r, w, m in zip(ranked, r_yy, weights, tail_rows):
            r_inv, info = lapack.dtrtri(r)
            if info == 0:
                entries[k] = r, r_inv, w, m
        for index, k in usable:
            if k in entries:
                groups.setdefault(n, []).append((index, k, *entries[k]))

    def _bound(self, groups, screens) -> None:
        """Set ``screens[index]`` to ``(value, bound)`` for each entry ``(index,
        k, R_yy, R_yy^-1, weights, tail rows)`` of ``groups``, stacked over
        equal n, where the bound allows the value.

        The computed factor of [X Y] is the exact factor of [X Y] plus a
        columnwise perturbation of relative size about u sqrt(T' + W), W the
        width of Z.  To first order that moves ln det(E'E) by at most
        2 u sqrt(T' + W) S, S = sum_i ||row i of R_yy^-1|| (||y_i|| +
        sum_j ||x_j|| |B_ji|) with B = R_xx^-1 R_xy the coefficients, and
        weights_i = ||y_i|| + sum_j ||x_j|| |B_ji|.  Where R_yy comes from a
        second QR, of the m rows of R below X's (``_screen_families``), that
        QR is the exact one of those rows E plus a columnwise perturbation of
        relative size about u sqrt(m); as ||e_i|| <= ||y_i||, it moves
        ln det(E'E) = ln det(R_yy'R_yy) by at most 2 u sqrt(m) S more.  The
        rounding of E'E in the QR value is added, the sum is multiplied by
        ``_SAFETY``, and the rounding of the criterion itself is added last.
        """
        t, width = self.effective_t, self._columns.shape[0]  # T', W
        for n, group in groups.items():
            indices, ks, r_yy, r_yy_inv, weights, tails = zip(*group)
            r_yy, r_yy_inv = np.triu(np.stack(r_yy)), np.triu(np.stack(r_yy_inv))
            sensitivity = np.sum(np.linalg.norm(r_yy_inv, axis=2) * weights, axis=1)
            v = np.linalg.norm(r_yy, axis=1)[:, :, None] * r_yy_inv
            v_norm = np.linalg.norm(v @ np.swapaxes(v, 1, 2), axis=(1, 2))
            perturbation = math.sqrt(t + width) + np.sqrt(tails)
            bounds = _SAFETY * _UNIT * (
                2.0 * perturbation * sensitivity + math.sqrt(t) * v_norm
            )
            diagonals = np.abs(np.diagonal(r_yy, axis1=1, axis2=2))
            log_dets = 2.0 * np.sum(np.log(diagonals), axis=1) - n * math.log(t)
            rows = zip(indices, ks, bounds.tolist(), log_dets.tolist())
            for index, k, bound, log_det in rows:
                # This test also sends every perfect fit to QR: row i of R_yy^-1
                # holds 1 / |r_ii| >= 1 / ||R_yy||_F, so S >= ||Y||_F / ||R_yy||_F,
                # and ||R_yy||_F <= 2 DEGENERATE_RTOL ||Y||_F, twice QR's snap
                # threshold, gives S >= 5e11 and a bound above 1e-3.
                if bound <= VALUE_TOLERANCE:
                    value = criterion_from_log_det(self.kind, log_det, n * k, t)
                    margin = 8.0 * _UNIT * (abs(value) + abs(log_det) + n)
                    screens[index] = value, bound + margin


def _full_rank(r_xx: np.ndarray, norms: np.ndarray) -> bool:
    """Whether the condition of X rules out QR's rank flag, from the
    triangle R_xx of X and X's column norms D.

    QR flags rank when a pivoted diagonal falls below RANK_RTOL times its
    column's norm, and every such ratio is at least 1 / cond_2(X D^-1) >=
    1 / (K cond_1(R_xx D^-1)); LAPACK reads only R_xx's upper triangle.
    """
    rcond, _ = lapack.dtrcon(r_xx / norms)
    return rcond > 10.0 * len(norms) * RANK_RTOL
