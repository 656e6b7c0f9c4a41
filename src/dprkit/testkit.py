"""Synthetic clustered panels with a known answer, and a label-agreement score.

``SyntheticSpec`` is the recipe, ``generate_panel`` builds the panel and its
``GroundTruth`` (planted labels, coefficients and offsets), and
``adjusted_rand_index`` scores a clustering against the planted labels.  The
CLI ``synth`` command writes these panels, and the tests and the benchmark
generate their inputs here; no other command imports this module.  The
independent oracles that check the production modules (brute-force DBSCAN,
a generic minimizer of the penalized objective, KKT residuals) live with the
tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .panel import PanelDataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a clustered panel whose modeling assumptions hold exactly.

    Entities are assigned round-robin to ``n_clusters`` mix profiles; each
    observation's features are a jittered profile times an entity/period
    scale, and the target satisfies

        ln(target + 1) = base_level + sum_j w_j ln(x_j + 1)
                         + offset[cluster] + N(0, noise_sd)

    so a run with log offset 1 recovers a linear model by construction.
    ``mix_jitter`` controls the intra-cluster spread of the share vectors
    (and with it how separable the planted clusters are).
    """

    n_entities: int = 12
    n_periods: int = 8
    n_features: int = 6
    n_clusters: int = 3
    mix_profiles: tuple[tuple[float, ...], ...] | None = None
    true_coefficients: tuple[float, ...] | None = None
    noise_sd: float = 0.05
    seed: int = 0
    mix_jitter: float = 0.02
    scale_sd: float = 0.6
    scale_base: float = 40.0
    trend: float = 0.03
    base_level: float = 2.0
    offset_scale: float = 1.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if min(self.n_entities, self.n_periods, self.n_features, self.n_clusters) < 1:
            raise ValidationError("synthetic spec dimensions must be >= 1")
        if self.n_clusters > self.n_entities:
            raise ValidationError("more clusters than entities")
        for name, ok, rule in (("noise_sd", self.noise_sd >= 0, ">= 0"),
                               ("mix_jitter", self.mix_jitter >= 0, ">= 0"),
                               ("scale_sd", self.scale_sd >= 0, ">= 0"),
                               ("scale_base", self.scale_base > 0, "> 0"),
                               ("trend", self.trend > -1, "> -1")):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class GroundTruth:
    labels: np.ndarray            # planted cluster per observation row
    entity_labels: np.ndarray     # planted cluster per entity
    coefficients: np.ndarray      # w_j on the log features
    offsets: np.ndarray           # additive log-space shift per cluster
    base_level: float


def _default_profiles(k: int, p: int) -> np.ndarray:
    prof = np.full((k, p), 0.2 / max(1, p - 1))
    for c in range(k):
        prof[c, c % p] = 0.8
    if p == 1:
        prof[:] = 1.0
    return prof / prof.sum(axis=1, keepdims=True)


# the most rows generate_panel draws and computes at once, in whole entities
BLOCK_ROWS = 1024

# the largest ln(target + 1) whose target is a finite float
_MAX_LOG = math.log(sys.float_info.max)


def _overflow(base_level: float, offset: float, feature_term: float) -> str:
    terms = {"base_level": base_level, "offset_scale": offset,  # the largest term of the log
             "scale_base or trend": math.inf if math.isnan(feature_term) else feature_term}
    return f"synthetic target overflows the float range; lower {max(terms, key=terms.get)}"


def generate_panel(spec: SyntheticSpec) -> tuple[PanelDataset, GroundTruth]:
    """Deterministic synthetic panel plus the planted ground truth.

    Rows run entity by entity, periods in order within each.  The random
    stream is drawn in a fixed order: the ``n_entities`` entity-scale draws
    first, then for each row in row order its ``n_features`` mix-jitter draws,
    one period-scale draw and one noise draw.  Rows are generated in blocks of
    whole entities of at most ``BLOCK_ROWS`` rows (one entity if it has more
    periods); every row's arithmetic is the same in any block, so the block
    size does not change a panel by a single bit.
    """
    rng = np.random.default_rng(spec.seed)
    k, p = spec.n_clusters, spec.n_features
    if spec.mix_profiles is None:
        profiles = _default_profiles(k, p)
    else:
        profiles = np.asarray(spec.mix_profiles, dtype=np.float64)
        if profiles.shape != (k, p):
            raise ValidationError(
                f"mix_profiles shape {profiles.shape} != ({k}, {p})"
            )
        if np.any(profiles < 0) or np.any(profiles.sum(axis=1) <= 0):
            raise ValidationError("mix profiles must be non-negative with positive sums")
        profiles = profiles / profiles.sum(axis=1, keepdims=True)

    if spec.true_coefficients is None:
        w = np.zeros(p)
        w[0] = 0.9
        if p > 2:
            w[2] = 0.4
        elif p > 1:
            w[1] = 0.4
    else:
        w = np.asarray(spec.true_coefficients, dtype=np.float64)
        if w.shape != (p,):
            raise ValidationError(f"true_coefficients length {w.shape} != {p}")

    offsets = (
        np.linspace(0.0, spec.offset_scale, k) if k > 1 else np.zeros(1)
    )
    entity_labels = np.arange(spec.n_entities) % k
    entities = [f"E{e:03d}" for e in range(spec.n_entities)]
    periods = [2000 + t for t in range(spec.n_periods)]

    growth = np.empty(spec.n_periods)
    for t in range(spec.n_periods):
        try:
            growth[t] = (1.0 + spec.trend) ** t
        except OverflowError:
            growth[t] = math.inf
    rows = spec.n_entities * spec.n_periods
    features = np.empty((rows, p))
    targets = np.empty(rows)
    entity_idx = np.repeat(np.arange(spec.n_entities, dtype=np.intp), spec.n_periods)
    period_idx = np.tile(np.arange(spec.n_periods, dtype=np.intp), spec.n_entities)
    labels = entity_labels.astype(np.intp)[entity_idx]
    block_rows = max(1, BLOCK_ROWS // spec.n_periods) * spec.n_periods
    # a scale or feature above the float range is refused below, by its target
    with np.errstate(over="ignore", invalid="ignore"):
        entity_scale = spec.scale_base * np.exp(rng.normal(0.0, spec.scale_sd, spec.n_entities))
        for first in range(0, rows, block_rows):
            block = slice(first, min(rows, first + block_rows))
            n = block.stop - block.start
            # each row's p mix, scale and noise draws; rng.normal(0, s) is 0 + s * z,
            # s * z but for the sign of a zero, which the abs and exps below drop
            z = rng.standard_normal((n, p + 2))
            c = labels[block]
            mix = np.abs(profiles[c] + spec.mix_jitter * z[:, :p])
            # a sum along each contiguous row adds in the order of a 1-d sum
            total = mix.sum(axis=1, keepdims=True)
            mix = np.divide(mix, total, out=profiles[c], where=total > 0)
            # math.exp, not np.exp: the two can differ in the last digit
            jitter = np.fromiter(map(math.exp, (0.05 * z[:, p]).tolist()), np.float64, n)
            scale = entity_scale[entity_idx[block]] * growth[period_idx[block]] * jitter
            x = mix * scale[:, None]
            # one dot per row, as a matrix-vector product would sum in another order
            feature_term = np.fromiter(map(w.dot, np.log(x + 1.0)), np.float64, n)
            log_level = spec.base_level + feature_term + offsets[c] + spec.noise_sd * z[:, p + 1]
            bad = np.flatnonzero(~(log_level <= _MAX_LOG))
            if bad.size:
                i = bad[0]
                raise ValidationError(_overflow(spec.base_level, offsets[c[i]], feature_term[i]))
            features[block] = x
            targets[block] = np.fromiter(map(math.exp, log_level.tolist()), np.float64, n) - 1.0

    if np.any(targets < 0):
        raise ValidationError(
            "synthetic target went negative; raise base_level or lower noise_sd"
        )
    data = PanelDataset(
        entities=entities,
        periods=periods,
        feature_names=[f"f{j:02d}" for j in range(p)],
        entity_idx=entity_idx,
        period_idx=period_idx,
        features=features,
        targets=targets,
    )
    truth = GroundTruth(
        labels=labels,
        entity_labels=entity_labels,
        coefficients=w,
        offsets=offsets,
        base_level=spec.base_level,
    )
    return data, truth


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI between two labelings of the same rows; noise ids count as labels."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise ValidationError("ARI needs two equal-length non-empty labelings")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    for i, j in zip(ai, bi):
        table[i, j] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0 if np.array_equal(ai, bi) else 0.0
    return float((sum_ij - expected) / (maximum - expected))
