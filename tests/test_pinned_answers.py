"""Pinned answers of all eleven engines on small seeded problems.

The values below were recorded from the engines before the configuration
and coefficient engines came to share one tabu step, one run bookkeeper and
one residual scorer; any refactor of that shared code must reproduce them.
The pins for non-default parameters were recorded before both spaces came
to run one GA, one tabu search, one GRASP and one hybrid.
Besides the evaluation count, the trajectory and the best answer, the
configuration engines pin a digest of the order in which candidates were
scored, so a change in which neighbour a tabu step takes shows even when
the trajectory does not move.
"""

import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest

from varsearch import (
    CoeffSearchParams,
    CriterionKind,
    GAParams,
    GraspParams,
    HybridParams,
    ModelConfig,
    PartitionMode,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    TabuParams,
    exhaustive_search,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    search_coefficients_full,
    tabu_search,
)

from varsearch.search import engines

from .conftest import make_dataset, noisy_dataset

VALUE_TOL = 1e-12


class Pin(NamedTuple):
    evaluations_used: int
    indices: list
    values: list
    best: object
    log_digest: str = ""


CONFIG_PINS = {
    'exhaustive': Pin(
        evaluations_used=65,
        indices=[1, 2, 4, 12, 15, 17, 20],
        values=[
            -0.5861972113236408, -1.3791831134957835, -1.7130957598625967,
            -1.724272052719678, -2.1589222023822634, -2.802184422452875,
            -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='6847b5f4b781928d',
    ),
    'ga': Pin(
        evaluations_used=33,
        indices=[1, 2, 3],
        values=[
            math.inf, -1.724272052719678, -2.802184422452875,
        ],
        best=(2, 0, (True, True, True, True)),
        log_digest='d2e5ca5bfe1da59e',
    ),
    'tabu': Pin(
        evaluations_used=45,
        indices=[1, 4, 16],
        values=[
            -2.7281785940924563, -2.7543735253791968, -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='69d91abc2c249288',
    ),
    'grasp': Pin(
        evaluations_used=39,
        indices=[1, 2, 3, 6, 10, 11, 17],
        values=[
            -0.5861972113236408, -0.7560245867475993, -0.973533486474737,
            -2.7203930519259605, -2.728344555590775, -2.7625137434129106,
            -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='403bb3e9c86c9db0',
    ),
    'scatter': Pin(
        evaluations_used=60,
        indices=[1, 6, 8, 17, 31],
        values=[
            -2.692522094382426, -2.7203930519259605, -2.7281785940924563,
            -2.7469970043964613, -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='22697cd64f11344e',
    ),
    'hybrid': Pin(
        evaluations_used=40,
        indices=[1, 2, 3, 6, 10, 11, 17],
        values=[
            -0.5861972113236408, -0.7560245867475993, -0.973533486474737,
            -2.7203930519259605, -2.728344555590775, -2.7625137434129106,
            -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='f653d936d9fcbb33',
    ),
}

COEFF_PINS = {
    'ga': Pin(
        evaluations_used=400,
        indices=[
            1, 73, 78, 102, 116, 117, 129, 159, 175, 178, 183, 190, 200, 217, 284, 290,
            304,
        ],
        values=[
            2.810616687687617, 2.058204219436456, 2.0104304955946635,
            1.9304983159359805, 1.9165400367076884, 1.6745440619113627,
            1.5508821120740888, 1.4437716476473013, 1.4352661762617371,
            1.4165369036319668, 1.3703917436156705, 1.3435643489294986,
            1.2505347118559074, 1.2221891936942453, 1.2187473877354804,
            1.2011308492450172, 1.1602253380312584,
        ],
        best=[
            -0.5525209613294582, -0.05829442761252024, 1.296400649660192,
            0.5280827370955676, 0.33360792264434436, 0.2742152975066538,
        ],
    ),
    'tabu': Pin(
        evaluations_used=400,
        indices=[
            1, 2, 5, 14, 17, 26, 38, 49, 50, 62, 74, 91, 98, 109, 139, 151, 163, 175,
            187, 199, 211, 230, 271, 278, 283, 290, 307, 379, 391,
        ],
        values=[
            2.810616687687617, 2.575519063015251, 2.306869897638933, 2.1120628343860943,
            2.087657342952345, 1.9851516636883157, 1.9452334712542656,
            1.9073027593200274, 1.8620292313427753, 1.8482557197226734,
            1.8081496602958889, 1.7819164253367914, 1.7694815261634158,
            1.7535454335549265, 1.7423952807468455, 1.7252771062107009,
            1.722351394658915, 1.6878473140234251, 1.6844994960619255,
            1.6236311412513529, 1.5778957585293885, 1.527342024373189,
            1.4983111348830187, 1.4800107095812889, 1.4769315420674791,
            1.4176677967349576, 1.3682825261079206, 1.3129391185075232,
            1.2643494703529616,
        ],
        best=[
            -0.5954984653287086, -0.09924974422145144, 0.893247697993063,
            0.4962487211072572, 0.0, 0.19849948844290288,
        ],
    ),
    'grasp': Pin(
        evaluations_used=400,
        indices=[
            1, 117, 119, 129, 141, 143, 153, 165, 177, 179, 189, 201, 213, 215, 225,
            237, 249, 251, 261, 273, 285, 287, 297, 309, 321, 323, 333, 350,
            353, 362, 365, 374, 377, 386, 389, 398,
        ],
        values=[
            2.810616687687617, 2.7352590164706823, 2.7104588308052153,
            2.610488887971011, 2.514754805640954, 2.508388154850105,
            2.3894558727146187, 2.274015871878155, 2.1653315036745275,
            2.153428865299375, 2.0119727522048634, 1.8764242795283375,
            1.7527620935405293, 1.7303612184372663, 1.5576532914941006,
            1.3964896867435788, 1.2592167178124583, 1.2149578515825377,
            0.9993045582290836, 0.8113658029484139, 0.6800197055251749,
            0.5859660835691194, 0.32514480548131514, 0.14849272414401232,
            0.11714797104034069, -0.08076162565880701, -0.2861049667063345,
            -0.2874118526209331, -0.3903935407820291, -0.3998162001174614,
            -0.48354970477405673, -0.5027294416183503, -0.5610936682351051,
            -0.5914841561668667, -0.6184624469032445, -0.6610158814354348,
        ],
        best=[
            -1.1909969306574175, -0.198499488442903, 3.0767420708649946,
            0.9924974422145145, -0.39699897688580577, 0.09924974422145144,
        ],
    ),
    'scatter': Pin(
        evaluations_used=400,
        indices=[
            1, 31, 49,
        ],
        values=[
            2.810616687687617, 2.7186036340727577, 1.6363939236060348,
        ],
        best=[
            -0.3642152118316436, 0.09314684220737196, 1.5944971734522628,
            0.733477961873243, -0.17982690955876107, 0.2747586867947461,
        ],
    ),
    'hybrid': Pin(
        evaluations_used=400,
        indices=[
            1, 143, 168, 169, 254, 266, 278, 280, 289, 290, 292, 302,
        ],
        values=[
            2.810616687687617, 2.7920914673704207, 2.6404987342569717,
            2.489408316982916, 2.4512404129282626, 2.436120597471126,
            2.418033291476355, 2.3649184320444947, 2.3630552933943174,
            2.259038008945676, 2.2031659768449994, 2.1124467438937584,
        ],
        best=[
            -0.09924974422145144, 0.09924974422145144, 0.09924974422145144,
            0.09924974422145144, 0.09924974422145144, 0.5954984653287085,
        ],
    ),
}

# non-default parameters: every operator setting the default pins leave alone
CONFIG_PARAMS = {
    "ga": GAParams(
        elitism=0, tournament_size=3, crossover_rate=0.0, mutation_rate=0.4
    ),
    "tabu": TabuParams(tenure=0),
    "grasp": GraspParams(alpha=1.0),
    "hybrid": HybridParams(construction_share=0.5),
}

CONFIG_PARAM_PINS = {
    'ga': Pin(
        evaluations_used=51,
        indices=[1, 2, 3, 21],
        values=[
            math.inf, -1.724272052719678, -2.802184422452875, -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='b53d7661ec42c59d',
    ),
    'tabu': Pin(
        evaluations_used=23,
        indices=[1, 4, 16],
        values=[
            -2.7281785940924563, -2.7543735253791968, -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='72f8be2c3b0fb23d',
    ),
    'grasp': Pin(
        evaluations_used=60,
        indices=[1, 2, 3, 6, 11, 20, 43],
        values=[
            -0.5861972113236408, -0.7560245867475993, -0.973533486474737,
            -2.7203930519259605, -2.7290945616789175, -2.7543735253791968,
            -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='c1d389f31f7327cb',
    ),
    'hybrid': Pin(
        evaluations_used=39,
        indices=[1, 2, 3, 6, 10, 11, 17],
        values=[
            -0.5861972113236408, -0.7560245867475993, -0.973533486474737,
            -2.7203930519259605, -2.728344555590775, -2.7625137434129106,
            -2.8026629950411825,
        ],
        best=(2, 1, (True, True, False, True)),
        log_digest='5700aad8de1d7297',
    ),
}

COEFF_PARAMS = CoeffSearchParams(
    include_ols_start=True, population_size=10, grasp_grid=3
)

# the least-squares start wins at once in GA and scatter; the tabu search
# starts from zero whatever the population settings
_OLS_START = Pin(
    evaluations_used=400,
    indices=[1, 2],
    values=[2.810616687687617, -2.159100320197548],
    best=[
        -1.5307800355821548, -0.38408907777439216, 3.903193816146474,
        1.4603187115291567, -0.8602275186909424, -0.08237013396032924,
    ],
)

COEFF_PARAM_PINS = {
    'ga': _OLS_START,
    'tabu': COEFF_PINS['tabu'],
    'grasp': Pin(
        evaluations_used=400,
        indices=[
            1, 21, 24, 33, 36, 45, 53, 56, 62, 65, 68, 74, 81, 98, 110, 117, 128,
            129, 134, 141, 158, 170, 177, 194, 206, 218, 225, 242, 254, 261, 278,
            290, 302, 305, 308, 314, 321, 338, 350, 357, 365, 369, 383, 386, 398,
        ],
        values=[
            2.810616687687617, 2.575519063015251, 2.306869897638933,
            2.1120628343860943, 2.087657342952345, 2.07852787470686,
            2.0512876164127523, 1.994611003319164, 1.9836180367999154,
            1.9742625863136265, 1.9474729246104712, 1.9300184336950572,
            1.897242585785503, 1.852679821711453, 1.8262738399275413,
            1.8177389025129673, 1.816688310663687, 1.8142847759547274,
            1.8026116170701894, 1.7509032833708282, 1.706160345688534,
            1.6827989559060548, 1.656960080992613, 1.5994127573167471,
            1.5648074900278188, 1.555664964943161, 1.4992900163536218,
            1.4513668468017018, 1.4313238999107931, 1.4092595713227007,
            1.3460369463041504, 1.3127193183614727, 1.3124365636547368,
            1.2909597347024222, 1.2905435650740376, 1.281089420286501,
            1.2271387420677036, 1.1672939321928173, 1.1446971927599752,
            1.138760626153916, 1.1297048867309851, 1.1268214258210854,
            1.0622917000292214, 1.0390423839805139, 0.9908634167681307,
        ],
        best=[
            -0.69474820955016, 0.19849948844290288, 1.7864953959861265, 0.0,
            -0.09924974422145144, 0.39699897688580577,
        ],
    ),
    'scatter': _OLS_START,
    'hybrid': Pin(
        evaluations_used=400,
        indices=[1, 21, 24, 33, 36, 45, 57, 68],
        values=[
            2.810616687687617, 2.575519063015251, 2.306869897638933,
            2.1120628343860943, 2.087657342952345, 1.9851516636883157,
            1.9452334712542656, 1.9073027593200274,
        ],
        best=[
            -0.09924974422145144, 0.09924974422145144, 0.0,
            0.09924974422145144, 0.0, 0.09924974422145144,
        ],
    ),
}


def _roles(text):
    return tuple(c == "1" for c in text)


# a raw space of 2 * 2 * 2**17 genomes, so the engines sample it by
# drawing genes rather than by listing its indices
LARGE_SPACE_PINS = {
    'ga': Pin(
        evaluations_used=60,
        indices=[1, 4, 33],
        values=[0.23739437172712702, -0.12986771915703432, -0.18324860325286899],
        best=(1, 0, _roles('10011001000001001')),
        log_digest='1605a055d4f65927',
    ),
    'grasp': Pin(
        evaluations_used=60,
        indices=[1, 6, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 31, 50],
        values=[
            0.2102863264593584, 0.18917512288639649, 0.10676073871138447,
            0.01456343518847425, 0.0014869913226176479, -0.017374981949159873,
            -0.06147064956566339, -0.08926662773008176, -0.11178796680645914,
            -0.11909218790490295, -0.19327368754527002, -0.3468995450783515,
            -0.3550913812754608, -0.3565420122568743,
        ],
        best=(1, 0, _roles('11011000100000001')),
        log_digest='3fba3d3a21f39c5b',
    ),
    'scatter': Pin(
        evaluations_used=60,
        indices=[1, 4, 28, 43, 48],
        values=[
            0.23739437172712702, -0.12986771915703432, -0.18100974552528187,
            -0.2002685584470686, -0.33273124958121114,
        ],
        best=(1, 0, _roles('11011000101100001')),
        log_digest='75ed1ea632d16096',
    ),
    'tabu': Pin(
        evaluations_used=60,
        indices=[1, 3, 23, 37, 41, 60],
        values=[
            0.23739437172712702, 0.07281083739234528, -0.03645540075363435,
            -0.058592477136869936, -0.17506140352446298, -0.18499488887414545,
        ],
        best=(1, 0, _roles('11011010101011000')),
        log_digest='9df9a99752e8305d',
    ),
}
# GRASP and the hybrid build the same first 60 candidates here
LARGE_SPACE_PINS['hybrid'] = LARGE_SPACE_PINS['grasp']

# sample(default_rng(3), 200) on the large space, as (p, q, mask integer):
# the first six and a digest of all 200
LARGE_SPACE_SAMPLE_HEAD = [
    (2, 0, 50232), (1, 0, 118630), (2, 0, 36377), (1, 0, 72675), (1, 1, 46777),
    (1, 1, 105227),
]
LARGE_SPACE_SAMPLE_DIGEST = '6aeab0675e4a4a9d'

CONFIG_ENGINES = {
    "ga": ga_search,
    "tabu": tabu_search,
    "grasp": grasp_search,
    "scatter": scatter_search,
    "hybrid": hybrid_search,
}


def _log_digest(candidate_log) -> str:
    text = ";".join(
        f"{cfg.p},{cfg.q},{''.join('1' if b else '0' for b in cfg.dependent_mask)}"
        for cfg, _ in candidate_log
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _assert_trajectory(trajectory, pin):
    assert [i for i, _ in trajectory] == pin.indices
    for (_, got), want in zip(trajectory, pin.values):
        assert got == want or abs(got - want) <= VALUE_TOL


def _config_problem():
    ds = noisy_dataset(seed=0, n=2, p=2, d=2, q=1, t=120, noise=0.5)
    space = SearchSpace(
        p_max=5, q_max=3, partition_mode=PartitionMode.SEARCH, switchable=(2, 3)
    )
    return ds, space, SearchBudget(60, stagnation_limit=30, master_seed=1)


def _assert_config_pin(result, pin):
    assert result.evaluations_used == pin.evaluations_used
    _assert_trajectory(result.trajectory, pin)
    cfg = result.best_config
    assert (cfg.p, cfg.q, tuple(cfg.dependent_mask)) == pin.best
    assert _log_digest(result.candidate_log) == pin.log_digest


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_configuration_engine_answers_are_pinned(name):
    ds, space, budget = _config_problem()
    if name == "exhaustive":
        result = exhaustive_search(ds, space, CriterionKind.AIC)
    else:
        result = CONFIG_ENGINES[name](ds, space, CriterionKind.AIC, budget)
    _assert_config_pin(result, CONFIG_PINS[name])


@pytest.mark.parametrize("name", sorted(CONFIG_PARAM_PINS))
def test_configuration_engine_answers_with_non_default_parameters(name):
    ds, space, budget = _config_problem()
    result = CONFIG_ENGINES[name](
        ds, space, CriterionKind.AIC, budget, CONFIG_PARAMS[name]
    )
    _assert_config_pin(result, CONFIG_PARAM_PINS[name])


def _coefficient_outcome(name, params=None):
    # a stagnation limit above the budget lets the tabu phases run to the end
    ds = noisy_dataset(seed=4, n=2, p=1, t=80, noise=0.5)
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True))
    budget = SearchBudget(400, stagnation_limit=10**6, master_seed=1)
    return search_coefficients_full(
        ds, cfg, CriterionKind.BIC, SearchMethod(name), budget, params
    )


def _assert_coeff_pin(outcome, pin):
    assert outcome.evaluations_used == pin.evaluations_used
    _assert_trajectory(outcome.trajectory, pin)
    np.testing.assert_allclose(outcome.theta, pin.best, rtol=0, atol=VALUE_TOL)


@pytest.mark.parametrize("name", sorted(COEFF_PINS))
def test_coefficient_engine_answers_are_pinned(name):
    _assert_coeff_pin(_coefficient_outcome(name), COEFF_PINS[name])


@pytest.mark.parametrize("name", sorted(COEFF_PARAM_PINS))
def test_coefficient_engine_answers_with_non_default_parameters(name):
    outcome = _coefficient_outcome(name, COEFF_PARAMS)
    _assert_coeff_pin(outcome, COEFF_PARAM_PINS[name])


def _large_space_problem():
    ds = make_dataset(np.random.default_rng(0).normal(size=(400, 17)))
    space = SearchSpace(
        p_max=2, q_max=1, partition_mode=PartitionMode.SEARCH,
        switchable=tuple(range(17)),
    )
    assert space.raw_size() > engines._DISTINCT_SAMPLE_MATERIALIZE
    return ds, space


@pytest.mark.parametrize("name", sorted(LARGE_SPACE_PINS))
def test_configuration_engine_answers_on_a_sampled_space(name):
    ds, space = _large_space_problem()
    result = CONFIG_ENGINES[name](ds, space, CriterionKind.AIC, SearchBudget(60, 50, 1))
    _assert_config_pin(result, LARGE_SPACE_PINS[name])


def test_large_space_sample_is_pinned():
    ds, space = _large_space_problem()
    run = engines._SearchRun(ds, space, CriterionKind.AIC, SearchBudget(10))
    genes = [space.genes(g) for g in run.sample(np.random.default_rng(3), 200)]
    triples = [(p, q, sum(b << i for i, b in enumerate(bits))) for p, q, bits in genes]
    assert triples[: len(LARGE_SPACE_SAMPLE_HEAD)] == LARGE_SPACE_SAMPLE_HEAD
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()[:16]
    assert digest == LARGE_SPACE_SAMPLE_DIGEST
