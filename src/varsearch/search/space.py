"""Search space over model configurations and shared search types.

A configuration genome is its index in the raw order of the space: p
outermost, then q, then the role mask as a binary integer whose bit i is
the dependent flag of the i-th switchable column.  That order is also the
deterministic tie-breaker used by every search engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import EmptySpaceError, ValidationError
from ..model import ModelConfig, TimeSeriesDataset, validate_config

__all__ = [
    "PartitionMode",
    "SearchMethod",
    "SearchSpace",
    "SearchBudget",
    "SearchResult",
    "enumerate_space",
]


class PartitionMode(enum.Enum):
    FIXED = "fixed"
    SEARCH = "search"


class SearchMethod(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    GA = "ga"
    TABU = "tabu"
    GRASP = "grasp"
    SCATTER = "scatter"
    HYBRID = "hybrid"

    @classmethod
    def from_string(cls, text):
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown method {text!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class SearchSpace:
    """Bounds of the configuration search.

    ``p`` ranges over [1, p_max], ``q`` over [0, q_max].  In FIXED mode the
    variable partition comes from the dataset roles; in SEARCH mode the
    columns listed in ``switchable`` have their role searched while all
    others keep their dataset role.
    """

    p_max: int
    q_max: int = 0
    partition_mode: PartitionMode = PartitionMode.FIXED
    switchable: tuple = ()
    include_constant: bool = True
    # switchable columns whose role is searched, and 2 ** n_bits role masks
    n_bits: int = field(init=False, repr=False, compare=False)
    mask_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p_max < 1:
            raise ValueError(f"p_max must be >= 1, got {self.p_max}")
        if self.q_max < 0:
            raise ValueError(f"q_max must be >= 0, got {self.q_max}")
        switchable = tuple(sorted(int(i) for i in self.switchable))
        if len(set(switchable)) != len(switchable):
            raise ValueError("switchable column indices must be unique")
        if switchable and switchable[0] < 0:
            raise ValueError("switchable column indices must be >= 0")
        if self.partition_mode is PartitionMode.FIXED and switchable:
            raise ValueError("switchable columns require partition_mode=SEARCH")
        object.__setattr__(self, "switchable", switchable)
        n_bits = len(switchable) if self.partition_mode is PartitionMode.SEARCH else 0
        object.__setattr__(self, "n_bits", n_bits)
        object.__setattr__(self, "mask_count", 1 << n_bits)

    def raw_size(self) -> int:
        """Size before validity filtering."""
        return self.p_max * (self.q_max + 1) * self.mask_count

    @property
    def common_row_start(self) -> int:
        """First regression row shared by every candidate: max(p_max, q_max)."""
        return max(self.p_max, self.q_max)

    def check_columns(self, ds: TimeSeriesDataset) -> None:
        """Raise ``ValidationError`` if a switchable index is not a column of ds."""
        last = self.switchable[-1] if self.switchable else -1
        if last >= ds.n_vars:
            message = f"switchable column {last} out of range for {ds.n_vars} columns"
            raise ValidationError([message])

    def genes(self, index: int) -> tuple:
        """The genes ``(p, q, bits)`` of the genome ``index``."""
        p, rest = divmod(index, (self.q_max + 1) * self.mask_count)
        q, mask_int = divmod(rest, self.mask_count)
        return (p + 1, q, tuple((mask_int >> i) & 1 for i in range(self.n_bits)))

    def index_of(self, p: int, q: int, bits) -> int:
        """The genome whose genes are ``(p, q, bits)``; the inverse of ``genes``."""
        mask_int = sum(b << i for i, b in enumerate(bits))
        return ((p - 1) * (self.q_max + 1) + q) * self.mask_count + mask_int

    def config_at(self, index: int, ds: TimeSeriesDataset) -> ModelConfig:
        """The configuration of the genome ``index`` on the roles of ds."""
        p, q, bits = self.genes(index)
        mask = list(ds.base_mask)
        for col, bit in zip(self.switchable, bits):
            mask[col] = bool(bit)
        return ModelConfig(
            p=p, q=q, dependent_mask=tuple(mask), include_constant=self.include_constant
        )


@dataclass(frozen=True)
class SearchBudget:
    """Evaluation budget and seed shared by all search engines.

    ``max_evaluations`` counts distinct candidates scored; repeat visits
    are served from a cache for free.  ``stagnation_limit`` stops a search
    after that many evaluations and engine rounds that scored nothing
    without an improvement.  A configuration search also stops once it has
    scored every genome of the raw space.
    """

    max_evaluations: int
    stagnation_limit: int = 200
    master_seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")


@dataclass
class SearchResult:
    """Outcome of one search run.

    ``trajectory`` lists (evaluation index, best-so-far value) at each
    improvement, so its values are non-increasing; they and ``best_value``
    are pivoted-QR values.  ``candidate_log`` records every scored
    candidate in evaluation order with the value it was ranked by, which
    lies within 1e-9 of its QR value.
    """

    best_config: ModelConfig
    best_fit: object
    best_value: float
    evaluations_used: int
    trajectory: list = field(default_factory=list)
    candidate_log: list = None
    skipped_invalid: int = 0
    method: str = ""


def _valid_configs(space: SearchSpace, ds: TimeSeriesDataset) -> dict:
    """``enumerate_space`` as ``{genome: cfg}``, in raw order."""
    space.check_columns(ds)
    configs = {}
    for index in range(space.raw_size()):
        cfg = space.config_at(index, ds)
        if not validate_config(cfg, ds):
            configs[index] = cfg
    if not configs:
        raise EmptySpaceError(
            "no valid configuration in the search space for this dataset"
        )
    return configs


def enumerate_space(space: SearchSpace, ds: TimeSeriesDataset) -> list:
    """All valid configurations in deterministic lexicographic order.

    Invalid members (per ``validate_config`` at each candidate's natural
    row start) are silently excluded.

    Raises
    ------
    ValidationError
        When a switchable index is not a column of ds.
    EmptySpaceError
        When no valid configuration remains.
    """
    return list(_valid_configs(space, ds).values())
