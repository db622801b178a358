"""scipy's LAPACK wrappers loaded without scipy.linalg: same bits, same errors.

``_lapack.qr_pivoted`` and ``_lapack.solve_upper`` must give what
``scipy.linalg.qr`` and ``scipy.linalg.solve_triangular`` give, to the bit,
and raise what they raise.  The start-up saving is checked in fresh
interpreters: a command and a fit never import ``scipy.linalg``, and a
fallback that does import it gives the same answers.
"""

import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varsearch
from varsearch import _lapack, write_csv

from .conftest import noisy_dataset

SRC = os.path.dirname(os.path.dirname(varsearch.__file__))


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this varsearch."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@st.composite
def designs(draw):
    """A T' x K design in either layout, scaled, maybe nearly collinear."""
    k = draw(st.integers(1, 8))
    t = draw(st.integers(k + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(t, k)) * 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        x[:, j] = x[:, i] + draw(st.sampled_from([1e-13, 1e-9, 1e-5])) * x[:, j]
    # build_regression_system gives C order or Fortran order
    x = np.array(x, order=draw(st.sampled_from("CF")))
    y = rng.normal(size=(t, draw(st.integers(1, 3))))
    return x, y


_EXAMPLE = np.random.default_rng(1).normal(size=(9, 3))


@settings(max_examples=200, deadline=None)
@given(designs())
@example((np.ascontiguousarray(_EXAMPLE), _EXAMPLE[:, :1]))
@example((np.asfortranarray(_EXAMPLE), _EXAMPLE[:, :1]))
def test_qr_and_solve_match_scipy_bit_for_bit(system):
    x, y = system
    before = (x.tobytes("A"), x.strides)
    q, r, piv = _lapack.qr_pivoted(x)
    # dgeqp3's workspace query is handed x itself, in either layout
    assert (x.tobytes("A"), x.strides) == before
    q_ref, r_ref, piv_ref = scipy.linalg.qr(x, mode="economic", pivoting=True)
    for got, ref in ((q, q_ref), (r, r_ref), (piv, piv_ref)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    z = q.T @ y
    z_before = z.tobytes()
    # qr_pivoted's R is C-ordered, and also Fortran-ordered at K = 1, where
    # scipy takes its untransposed dtrtrs call
    assert r.flags.c_contiguous and r.flags.f_contiguous == (r.shape[1] == 1)
    try:
        expected = scipy.linalg.solve_triangular(r, z, lower=False)
    except np.linalg.LinAlgError as error:
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(error))):
            _lapack.solve_upper(r, z)
    else:
        theta = _lapack.solve_upper(r, z)
        assert theta.dtype == expected.dtype
        assert theta.tobytes() == expected.tobytes()
    assert z.tobytes() == z_before


@settings(max_examples=100, deadline=None)
@given(designs())
def test_factoring_in_place_gives_the_same_bits(system):
    x, _ = system
    expected = _lapack.qr_pivoted(x)
    work = x.copy(order="K")
    got = _lapack.qr_pivoted(work, overwrite_x=True)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.tobytes("A") == e.tobytes("A")
    # LAPACK factors a Fortran-ordered x in its own memory and copies any other
    in_place = work.flags.f_contiguous
    assert np.shares_memory(got[0], work) == in_place
    if not in_place:
        assert work.tobytes("A") == x.tobytes("A")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_as_scipy_does(bad):
    x = np.random.default_rng(0).normal(size=(6, 2))
    x[3, 1] = bad
    with pytest.raises(ValueError) as expected:
        scipy.linalg.qr(x, mode="economic", pivoting=True)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        _lapack.qr_pivoted(x)
    r, b = np.triu(x[2:4]), x[2:4]
    with pytest.raises(ValueError) as expected:
        scipy.linalg.solve_triangular(r, b, lower=False)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        _lapack.solve_upper(r, b)


def test_singular_triangle_raises_as_scipy_does():
    r = np.triu(np.ones((3, 3)))
    r[1, 1] = 0.0
    b = np.ones((3, 2))
    with pytest.raises(np.linalg.LinAlgError) as expected:
        scipy.linalg.solve_triangular(r, b, lower=False)
    with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(expected.value))):
        _lapack.solve_upper(r, b)


def test_a_command_and_a_fit_never_import_scipy_linalg(tmp_path):
    path = tmp_path / "data.csv"
    ds = noisy_dataset(seed=3, n=2, p=1, t=120)
    write_csv(path, ds.names, ds.observations)
    out = _python(
        """
import json, sys
import varsearch
import varsearch.cli
code = varsearch.cli.cli_main(["select", "--input", sys.argv[1], "--p-max", "2"])
cfg = varsearch.ModelConfig(p=1, q=0, dependent_mask=(True, True))
varsearch.fit(varsearch.load_dataset(sys.argv[1]), cfg)
print(json.dumps([code, [m for m in ("scipy.linalg", "scipy._lib._array_api") if m in sys.modules]]))
""",
        path,
    )
    assert json.loads(out.splitlines()[-1]) == [0, []]


# Pickles a fit and an exhaustive search, and whether scipy.linalg was
# imported, to argv[1]; any code before it runs before varsearch is imported.
ANSWERS = """
import pickle, sys
import numpy as np
import varsearch
loaded = "scipy.linalg" in sys.modules
rng = np.random.default_rng(5)
obs = np.cumsum(rng.normal(size=(150, 3)), axis=0) * 0.1 + rng.normal(size=(150, 3))
ds = varsearch.TimeSeriesDataset(
    observations=obs, names=("a", "b", "c"), roles=(varsearch.Role.DEPENDENT,) * 3
)
result = varsearch.fit(ds, varsearch.ModelConfig(p=2, q=0, dependent_mask=(True, True, True)))
search = varsearch.exhaustive_search(ds, varsearch.SearchSpace(p_max=3), varsearch.CriterionKind.HQC)
answers = (
    result.coefficients.flatten().tobytes(), result.sigma.tobytes(), result.criterion_values,
    search.best_value, search.best_config, search.trajectory, search.candidate_log,
)
if "--then-scipy-linalg" in sys.argv:
    import scipy.linalg
    again = varsearch.fit(ds, result.config)
    assert again.coefficients.flatten().tobytes() == answers[0]
    assert again.sigma.tobytes() == answers[1]
with open(sys.argv[1], "wb") as fh:
    pickle.dump((loaded, answers), fh)
"""

# ways the extension file can fail to be found or loaded on its own
FALLBACKS = {
    "no-file": "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n",
    "load-fails": (
        "import importlib.util\n"
        "def fail(spec):\n    raise ImportError('cannot load ' + spec.name)\n"
        "importlib.util.module_from_spec = fail\n"
    ),
}


def _answers(tmp_path, name, prelude="", *flags):
    path = tmp_path / f"{name}.pickle"
    _python(prelude + ANSWERS, path, *flags)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def test_importing_scipy_linalg_afterwards_changes_no_fit(tmp_path):
    loaded, answers = _answers(tmp_path, "direct", "", "--then-scipy-linalg")
    assert not loaded
    assert _answers(tmp_path, "plain")[1] == answers


@pytest.mark.parametrize("fallback", sorted(FALLBACKS))
def test_fallback_through_scipy_linalg_gives_the_same_answers(fallback, tmp_path):
    direct_loaded, direct = _answers(tmp_path, "direct")
    fallback_loaded, answers = _answers(tmp_path, fallback, FALLBACKS[fallback])
    assert not direct_loaded and fallback_loaded
    assert answers == direct
