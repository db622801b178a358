"""Candidate evaluation: the QR oracle, the QR-factor screen, seeding.

``evaluate_config`` scores one configuration by pivoted QR and never
raises for a bad candidate, so the invalid-candidate convention (value
+inf) is the same everywhere.  ``CrossProductEvaluator`` scores the
candidates of one search from one triangular factor of all their columns,
built once per search, and calls ``evaluate_config`` wherever its own
value could decide something differently from QR, keeping its value and
coefficients, not its fit.  ``derive_candidate_seed`` gives each
logical random stream a seed that depends only on (master seed, stream
id), never on call order.
"""

from __future__ import annotations

import bisect
import math
import operator

import numpy as np

from .._lapack import flapack as lapack
from ..criteria import _UNIT, CriterionKind, criterion_from_log_det
from ..design import _lag_window, _window_columns
from ..errors import NumericOverflowError, RankDeficientError, ValidationError
from ..model import ModelConfig, TimeSeriesDataset, validate_config
from ..ols import RANK_RTOL, fit

__all__ = ["derive_candidate_seed", "evaluate_config"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# A screened value whose error bound exceeds this is certified by QR.
VALUE_TOLERANCE = 1e-9

# Multiple of the modelled rounding error taken as the bound.  On seeded
# VAR data, random walks and data scaled by 1e8 or 1e-8 or offset by 1e4,
# the observed |screened - QR| never exceeded 0.007 of the whole bound; over
# 400 draws of the property tests' hostile generator it reached 0.169, where
# a value near 74 was 2 ulp off and the bound was mostly the criterion's
# rounding margin.
_SAFETY = 8.0

# Rows of Z per block of the streamed QR factor.
_CHUNK = 1024

# Candidates whose screens are held at once; bounds the memory of a batch.
_HELD = 1024


def derive_candidate_seed(master_seed: int, stream_id: int) -> int:
    """Decorrelated 64-bit seed for one logical stream.

    SplitMix64 finalizer applied to ``master_seed XOR stream_id * gamma``,
    all arithmetic mod 2**64.  The same (master_seed, stream_id) pair
    always yields the same seed regardless of call order.  Raises
    ``ValueError``, as ``SearchBudget`` does, for a ``master_seed`` outside
    [0, 2**64), which reduced mod 2**64 would alias one inside.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")
    z = master_seed ^ ((stream_id * _GAMMA) & _MASK64)
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
        self.entries = []  # (low, high, genome, cfg) by low; cfg is None for a QR point

    def meets(self, low: float, high: float) -> bool:
        entries = self.entries
        i = bisect.bisect_left(entries, low, key=operator.itemgetter(0))
        if i > 0 and entries[i - 1][1] >= low:
            return True
        return i < len(entries) and entries[i][0] <= high

    def add(self, low: float, high: float, genome, cfg) -> None:
        bisect.insort_right(self.entries, (low, high, genome, cfg), key=operator.itemgetter(0))

    def pop_screened_containing(self, value: float):
        """Remove and return ``(genome, cfg)`` of each screened entry holding value."""
        found, entries = [], self.entries
        i = bisect.bisect_right(entries, value, key=operator.itemgetter(0)) - 1
        while i >= 0 and entries[i][1] >= value:
            if entries[i][3] is not None:
                found.append(entries.pop(i)[2:])
            i -= 1
        return found


class CrossProductEvaluator:
    """Scores the configurations of one search space from one QR factor.

    Every candidate of a search is fitted on the same rows, from
    ``space.common_row_start`` on, so its design X and targets Y are
    columns of Z = [1 | obs(t) | obs(t-1) ... obs(t-L)] with
    L = max(p_max, q_max); Z's rows and each candidate's columns of Z come
    from the lag window and the column map ``build_regression_system``
    reads, window column c being column c + 1 of Z.  The triangular factor
    R of Z is built once; as Z = QR, the columns of R for [X Y] have the
    same triangular factor as [X Y] itself.  A candidate then costs one
    Householder QR of its (K+n)-column slice of R, which gives R_xx, R_xy
    and R_yy with E'E = R_yy'R_yy, so ln det(E'E) = 2 sum ln |diag(R_yy)|
    whatever the sample size; with the constant first, that slice has only
    the 1 + m (l + 1) rows that columns of largest lag l reach.

    There is one screen, ``_screen_family``, one QR per family of
    candidates whose designs are nested in p.  ``screen_families`` screens
    the complete enumeration ``exhaustive_search`` hands it by (q, roles,
    constant); ``screen_batch`` screens each candidate of a metaheuristic's
    batch as a family of one, as such a batch holds about one lag order per
    family and a shared factor would make a screen depend on batch-mates.
    Bounds and ln det are stacked over equal n, and ``evaluate`` then
    decides the candidates one at a time.

    Householder QR is backward stable column by column, so each screened
    value carries a bound on its distance from the QR value of
    ``evaluate_config``.  QR scores the candidate instead when the factor
    cannot tell: when the condition of X cannot rule out the QR rank flag
    (``RANK_RTOL``); when the bound exceeds ``VALUE_TOLERANCE``, which it
    does wherever the residual could meet the perfect-fit snap; when
    the candidate could be a new best; and when its interval meets the
    value of another cached candidate, which is then refitted by QR too if
    its own value was screened.  Every comparison a search makes therefore
    comes out as it would on QR values, and every best value and its
    coefficients come from QR.

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
            stack[top:, 0] = 1.0
            for lag in range(max_lag + 1):
                stack[top:, 1 + lag * m : 1 + (lag + 1) * m] = window[r0 : r0 + rows, lag]
            qr = lapack.dgeqrf(stack, overwrite_a=1)[0]
            factor = np.triu(qr[:width])
        self._columns = np.ascontiguousarray(factor.T)  # row j: column j of R
        # overflowing entries send their candidates to QR, non-finite ones by a nan norm
        with np.errstate(over="ignore", invalid="ignore"):
            self._norms = np.linalg.norm(factor, axis=0)
        self._norms[~np.isfinite(factor).all(axis=0)] = math.nan

    def screen_batch(self, batch) -> None:
        """Screen the fresh candidates ``(genome, cfg)`` of one batch at once,
        each as a family of one (see ``_screen``)."""
        self._screen_into(batch, self._screen)

    def screen_families(self, batch) -> None:
        """``screen_batch`` of a complete enumeration, each lag-order family
        from one QR (see ``_screen_families``)."""
        self._screen_into(batch, self._screen_families)

    def _screen_into(self, batch, screen) -> None:
        widths = {}  # genome -> (cfg, K), K None where least squares cannot fit
        for genome, cfg in batch:
            invalid = validate_config(cfg, self.ds, row_start=self.row_start)
            widths[genome] = cfg, None if invalid else cfg.n_design_columns()
        screens = zip(widths.items(), screen(list(widths.values())))
        self._screens = {genome: (k, result) for (genome, (_, k)), result in screens}

    def evaluate(self, cfg: ModelConfig, genome, best_value):
        """Score a candidate of the last ``screen_batch``; ``best_value`` is
        None before any.

        Returns ``(value, n_params, theta)``; ``theta`` is the least-squares
        coefficient matrix when QR scored the candidate and fitted it, else
        None.
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
        value, theta = self._certify(cfg, genome)
        if math.isfinite(value):
            for other, other_cfg in self._intervals.pop_screened_containing(value):
                self._certify(other_cfg, other)
        return value, self.values[genome][1], theta

    def _certify(self, cfg: ModelConfig, genome):
        """QR's value and least-squares Theta, as ``evaluate_config`` gives
        them, Theta None where it gives no fit; the fit, E included, is
        freed on return."""
        value, fit_result = evaluate_config(self.ds, cfg, self.kind, self.row_start)
        self.qr_fits += 1
        n_params = fit_result.n_params if fit_result is not None else math.inf
        self.values[genome] = (value, n_params)
        if math.isfinite(value):
            self._intervals.add(value, value, genome, None)
        theta = fit_result.coefficients.flatten() if fit_result is not None else None
        return value, theta

    def _screen(self, candidates) -> list:
        """``(value, bound)`` from the factor for each ``(cfg, k)``, or None
        where k is None or the factor cannot tell; each candidate is a family
        of its own."""
        return self._screen_families(candidates, alone=True)

    @np.errstate(over="ignore", invalid="ignore")
    def _screen_families(self, candidates, alone=False) -> list:
        """``_screen`` of a complete enumeration, one QR per family of equal
        q, roles and constant, or with ``alone`` per candidate.

        A screen depends on the family members present, which for a
        complete enumeration is the space alone.  Families are processed in
        chunks of about ``_HELD`` candidates, never split, so that the
        screens held at once stay bounded.
        """
        screens = [None] * len(candidates)
        if self.kind is CriterionKind.HQC and self.effective_t <= math.e:
            return screens  # HQC is undefined
        families = {}  # (q, roles, constant), or the position -> [(k, index, cfg)]
        for index, (cfg, k) in enumerate(candidates):
            if k is not None:
                family = index if alone else (cfg.q, cfg.dependent_mask, cfg.include_constant)
                families.setdefault(family, []).append((k, index, cfg))
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
        """Add the screenable members ``(k, index, cfg)`` of one family to
        ``groups`` as entries of ``_bound``, from one QR of the widest.

        X's columns are ordered [1, exogenous lags 1..q, endogenous lags
        1..p], so X of order p is the leading K_p columns of the widest
        member's X.  One Householder QR of the widest usable order's [X Y]
        therefore holds every member, as in order-recursive least squares
        (Miller, *Subset Selection in Regression*, 2002, ch. 2): R_xx and
        R_xy of order p are its leading K_p rows, and E_p'E_p = R[K_p:,
        Y]'R[K_p:, Y].  The widest order's R_yy is the factor's own trailing
        block; a stacked QR of the rows below gives each smaller order's.  A
        lone candidate is a family whose widest order is all there is.

        Each order takes every check: a zero or nan column norm, too few
        rows of R, the rank test and a singular R_yy.  By singular-value
        interlacing, a column subset of X D^-1 is conditioned no worse than X
        D^-1 itself, so one rank test of the widest order at its own
        threshold covers every smaller order; where it fails, each order
        takes its own test.
        """
        members.sort()  # by K_p, then by position
        widest = members[-1][2]
        x, y = _window_columns(widest, self.ds.n_vars)
        n, endogenous = len(y), widest.p * len(y)  # x holds the endogenous lags first
        # window column c is column c + 1 of Z, whose column 0 is the constant
        columns = [-1] * widest.include_constant + x[endogenous:] + x[:endogenous] + y
        idx = np.array(columns) + 1
        norms = self._norms[idx]
        reach = self._columns.shape[1] - n  # order p needs K_p + n of R's min(T', W) rows
        if not norms.min() > 0.0:
            # order p needs positive norms up to its K_p-th column (a nan norm fails)
            positive = np.logical_and.accumulate(norms[:-n] > 0.0) & (norms[-n:].min() > 0.0)
            reach = min(reach, int(positive.sum()))
        orders = {}  # K_p -> positions, in ascending K_p
        for k, index, _ in members:
            if k <= reach:
                orders.setdefault(k, []).append(index)
        if not orders:
            return
        ranked = list(orders)
        k_top = ranked[-1]
        if k_top + n < len(idx):  # the widest member cannot be screened
            idx = np.concatenate((idx[:k_top], idx[-n:]))
        # R is upper triangular, so its rows past the last selected column of
        # Z are zero; LAPACK reads only the upper triangle of each factor below
        qr = lapack.dgeqrf(self._columns[idx, : idx.max() + 1].T, overwrite_a=1)[0]
        norms_x, norms_y, r_xx = norms[:k_top], norms[-n:], qr[:k_top, :k_top]
        if not _full_rank(r_xx, norms_x):
            ranked = [k for k in ranked[:-1] if _full_rank(qr[:k, :k], norms_x[:k])]
            if not ranked:
                return
            r_xx, norms_x = qr[: ranked[-1], : ranked[-1]], norms_x[: ranked[-1]]
        # B_p = R_xx^-1 R_xy of order p, R_xx a leading block of the widest
        # ranked order's, solves that triangle with R_xy's rows from K_p on zeroed
        k_solve = ranked[-1]
        rhs = qr[:k_solve, k_top:]
        if len(ranked) > 1:
            leading = np.arange(k_solve)[:, None] < np.array(ranked)
            rhs = (rhs[:, None] * leading[:, :, None]).reshape(k_solve, -1)
        coef, _ = lapack.dtrtrs(r_xx, rhs)
        weights = norms_y + (norms_x @ np.abs(coef)).reshape(len(ranked), n)
        # order p's R_yy: K_top's, where it is ranked, is the factor's own
        # trailing block; a smaller order's comes from one stacked QR of its
        # rows of R below X's, zero-padded, with the Householder vectors under
        # the diagonal of Y's last n rows zeroed, and its bound takes those
        # rows as a tail term
        r_yy, tails = [], []
        smaller = ranked[:-1] if k_solve == k_top else ranked
        if smaller:
            ks = np.array(smaller)
            tails = (k_top + n - ks).tolist()
            below = np.zeros((k_top + n + tails[0], n))
            below[: k_top + n] = qr[: k_top + n, k_top:]
            for j in range(n - 1):
                below[k_top + j + 1 : k_top + n, j] = 0.0
            r_yy = list(np.linalg.qr(below[ks[:, None] + np.arange(tails[0])], mode="r"))
        if k_solve == k_top:
            r_yy.append(qr[k_top : k_top + n, k_top:].copy())  # so that no group keeps qr
            tails.append(0)
        for i, k in enumerate(ranked):
            r_inv, info = lapack.dtrtri(r_yy[i])
            if info == 0:
                entry = k, r_yy[i], r_inv, weights[i], tails[i]
                groups.setdefault(n, []).extend((index, *entry) for index in orders[k])

    def _bound(self, groups, screens) -> None:
        """Set ``screens[index]`` to ``(value, bound)`` for each entry ``(index,
        k, R_yy, R_yy^-1, weights, tail rows)`` of ``groups``, stacked over
        equal n, where the bound allows the value.

        The computed factor of [X Y] is the exact factor of [X Y] plus a
        columnwise perturbation of relative size about u sqrt(T' + W), W the
        width of Z.  To first order that moves ln det(E'E) by at most
        2 u sqrt(T' + W) S, S = sum_i ||row i of R_yy^-1|| (||y_i|| +
        sum_j ||x_j|| |B_ji|) with B = R_xx^-1 R_xy the coefficients, and
        weights_i = ||y_i|| + sum_j ||x_j|| |B_ji|.  A smaller order of a
        family takes R_yy from a second QR, of the m tail rows of R below its
        X's (``_screen_family``), which is the exact one of those rows E plus
        a columnwise perturbation of relative size about u sqrt(m); as
        ||e_i|| <= ||y_i||, it moves ln det(E'E) = ln det(R_yy'R_yy) by at
        most 2 u sqrt(m) S more.  The widest order takes R_yy from the
        family's own factor, so no second QR runs and m is 0.  The rounding
        of E'E in the QR value is added, the sum is multiplied by
        ``_SAFETY``, and the rounding of the criterion itself is added last.
        """
        t = self.effective_t  # T'; W is read only for a group, as T' < 1 builds no R
        for n, group in groups.items():
            indices, ks, r_yy, r_yy_inv, weights, tails = zip(*group)
            r_yy, r_yy_inv = np.triu(np.stack(r_yy)), np.triu(np.stack(r_yy_inv))
            sensitivity = np.sum(np.linalg.norm(r_yy_inv, axis=2) * weights, axis=1)
            v = np.linalg.norm(r_yy, axis=1)[:, :, None] * r_yy_inv
            v_norm = np.linalg.norm(v @ np.swapaxes(v, 1, 2), axis=(1, 2))
            perturbation = math.sqrt(t + self._columns.shape[0]) + np.sqrt(tails)
            bounds = _SAFETY * _UNIT * (
                2.0 * perturbation * sensitivity + math.sqrt(t) * v_norm
            )
            diagonals = np.abs(np.diagonal(r_yy, axis1=1, axis2=2))
            log_dets = 2.0 * np.sum(np.log(diagonals), axis=1) - n * math.log(t)
            rows = zip(indices, ks, bounds.tolist(), log_dets.tolist())
            for index, k, bound, log_det in rows:
                # This test also sends a perfect fit of any equation to QR: row i
                # of R_yy^-1 holds 1 / |r_ii| >= 1 / ||e_i||, as column i of R_yy
                # has the norm of e_i, so S >= ||y_i|| / ||e_i||, and ||e_i|| <=
                # 2 DEGENERATE_RTOL ||y_i||, twice QR's snap threshold, gives S >=
                # 5e11 and a bound above 1e-3.  So does a Sigma that
                # criteria._log_det_symmetric calls singular: as ||e_i|| <=
                # weights_i, S >= ||D R_yy^-1||_F >= 1 / (n rcond(R_yy D^-1)), D =
                # diag(||e_i||), above 3e5 for rcond^2 <= 64 n u and n <= 10.
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
