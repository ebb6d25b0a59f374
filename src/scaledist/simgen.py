"""Two-class synthetic data generator for distance-design studies.

Each variable is drawn independently.  A variable is *noise* (both classes
share mean 0 and one standard deviation) or *informative* (class 1 has mean 0,
class 2 mean delta, with independently drawn per-class standard deviations),
and its base draws come from a standard normal or, with some probability, a
t distribution with 2 degrees of freedom.  Training and test data of one call
share all per-variable parameters; only the observation noise is fresh.

Reproducibility contract: every variable has its own substream, spawned from
the seed with numpy's SeedSequence (``SeedSequence(seed).spawn(p)[j]`` drives
variable j through a PCG64 generator).  Adding variables therefore never
reshuffles earlier ones, and columns can be generated in any order or in
parallel.  Within a variable the draw order is fixed: one uniform for the
t-vs-normal flag, one for the noise flag, then the parameters (noise: one
standard deviation; informative: the mean difference if ranged, then the two
class standard deviations), then 2*n_per_class base draws for training and
2*n_per_class for test.  t draws use ``Generator.standard_t(df=2)``.

Because all downstream distances use absolute coordinate differences and the
standardisations are symmetric, flipping the sign of any variable changes
nothing; mean differences are therefore drawn non-negative.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _check_integer, _check_json_kinds, _labels_text, _matrix_text, _write_files, check_labels,
)

__all__ = ["SetupSpec", "GeneratedDataset", "setup_catalog", "generate", "write_dataset"]

_MAX_SEED = 2 ** 64 - 1


# JSON kinds of each SetupSpec field in a setup description, in field order
_SETUP_KINDS = {
    "name": ("string",), "t2_fraction": ("number",), "noise_fraction": ("number",),
    "mean_diff": ("number", "pair"), "sd_range": ("pair",),
    "p": ("integer",), "n_per_class": ("integer",),
}


def _floats(key, *values):
    # integers too large for a float are a ValueError here, not an OverflowError
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        raise ValueError("setup %r holds a number too large for a float" % key) from None
    if not np.all(np.isfinite(floats)):
        raise ValueError("setup %r must be finite, got %s" % (key, ", ".join(map(repr, floats))))
    return floats


@dataclass(frozen=True)
class SetupSpec:
    """Parameters of one simulation setup.

    ``mean_diff`` is either a fixed value or a (low, high) range sampled
    uniformly per informative variable.  ``sd_range`` is the uniform range for
    every standard deviation draw.

    Construction checks the fields as :meth:`from_json_dict` checks a setup
    read from JSON: the :meth:`to_json_dict` image must pass the same type
    table (``_SETUP_KINDS``), so the fractions and ranges are numbers (bools
    are not; numpy floats are), the pairs hold exactly two, and ``p`` and
    ``n_per_class`` are Python ints.  The numbers must be finite, and are then
    kept as floats and the pairs as tuples.
    """

    name: str
    t2_fraction: float
    noise_fraction: float
    mean_diff: float | tuple[float, float]
    sd_range: tuple[float, float]
    p: int = 2000
    n_per_class: int = 50

    def __post_init__(self):
        _check_json_kinds(self.to_json_dict(), _SETUP_KINDS, "setup")
        if not self.name or any(c in self.name for c in ",\n\r"):
            raise ValueError("setup name must be non-empty without commas or newlines")
        if isinstance(self.mean_diff, (list, tuple)):
            lo, hi = _floats("mean_diff", *self.mean_diff)
            object.__setattr__(self, "mean_diff", (lo, hi))
            if not 0.0 <= lo <= hi:
                raise ValueError("mean_diff range must satisfy 0 <= low <= high")
        else:
            (mean_diff,) = _floats("mean_diff", self.mean_diff)
            object.__setattr__(self, "mean_diff", mean_diff)
            if self.mean_diff < 0:
                raise ValueError("mean_diff must be non-negative")
        lo, hi = _floats("sd_range", *self.sd_range)
        object.__setattr__(self, "sd_range", (lo, hi))
        if not 0.0 < lo <= hi:
            raise ValueError("sd_range must satisfy 0 < low <= high")
        for name in ("t2_fraction", "noise_fraction"):
            (v,) = _floats(name, getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, v))
            object.__setattr__(self, name, v)
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.n_per_class < 2:
            raise ValueError("n_per_class must be >= 2")

    def with_size(self, p=None, n_per_class=None):
        """Copy with a different dimensionality and/or class size, checked as
        at construction."""
        changes = {key: v for key, v in (("p", p), ("n_per_class", n_per_class)) if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def to_json_dict(self):
        # safe on unchecked fields: __post_init__ checks this image
        data = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_json_dict(cls, data):
        """Setup from :meth:`to_json_dict` output; ValueError on a missing,
        unknown or ill-typed key (see ``_SETUP_KINDS``)."""
        required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
        _check_json_kinds(data, _SETUP_KINDS, "setup", required)
        return cls(**data)


def _catalog_setup(name):
    """The catalog setup called ``name``; ValueError names the known ones."""
    catalog = setup_catalog()
    if name not in catalog:
        raise ValueError("unknown setup %r (known: %s)" % (name, ", ".join(catalog)))
    return catalog[name]


def setup_catalog():
    """The five named setups, keyed by name.

    All default to p = 2000 variables and 50 observations per class; both are
    overridable via :meth:`SetupSpec.with_size`.
    """
    specs = [
        SetupSpec("simple_normal", t2_fraction=0.0, noise_fraction=0.0,
                  mean_diff=0.1, sd_range=(0.5, 1.5)),
        SetupSpec("simple_normal_099", t2_fraction=0.0, noise_fraction=0.99,
                  mean_diff=12.0, sd_range=(0.5, 2.0)),
        SetupSpec("ntn_01", t2_fraction=0.1, noise_fraction=0.1,
                  mean_diff=(0.0, 0.3), sd_range=(0.5, 10.0)),
        SetupSpec("ntn_05", t2_fraction=0.5, noise_fraction=0.5,
                  mean_diff=(0.0, 2.0), sd_range=(0.5, 10.0)),
        SetupSpec("ntn_09", t2_fraction=0.9, noise_fraction=0.9,
                  mean_diff=(0.0, 10.0), sd_range=(0.5, 10.0)),
    ]
    return {s.name: s for s in specs}


@dataclass(frozen=True)
class GeneratedDataset:
    """One training/test pair with the per-variable ground truth.

    ``variable_meta`` maps "is_noise", "is_t2", "mean_diff", "sd_class1",
    "sd_class2" to length-p arrays; training and test data share them.
    """

    x_train: np.ndarray = field(repr=False)
    y_train: np.ndarray = field(repr=False)
    x_test: np.ndarray = field(repr=False)
    y_test: np.ndarray = field(repr=False)
    variable_meta: dict = field(repr=False)
    seed: int
    spec: SetupSpec


def _check_seed(seed):
    seed = _check_integer(seed, "seed")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must be a 64-bit non-negative integer, got %r" % (seed,))
    return seed


def generate(spec, seed):
    """Generate one dataset for a :class:`SetupSpec` (see module docstring).

    Class labels are 1 and 2; rows 0..n_per_class-1 are class 1.  Returns a
    :class:`GeneratedDataset`.  Deterministic in (spec, seed).  ``seed`` is
    an integer in [0, 2**64 - 1], a numpy integer too; ValueError otherwise.
    """
    if not isinstance(spec, SetupSpec):
        raise TypeError("spec must be a SetupSpec")
    seed = _check_seed(seed)
    p = spec.p
    m = spec.n_per_class
    streams = np.random.SeedSequence(seed).spawn(p)
    x_train = np.empty((2 * m, p))
    x_test = np.empty((2 * m, p))
    is_noise = np.empty(p, dtype=bool)
    is_t2 = np.empty(p, dtype=bool)
    mean_diff = np.empty(p)
    sd1 = np.empty(p)
    sd2 = np.empty(p)
    lo, hi = spec.sd_range
    for j in range(p):
        rng = np.random.default_rng(streams[j])
        is_t2[j] = rng.random() < spec.t2_fraction
        is_noise[j] = rng.random() < spec.noise_fraction
        if is_noise[j]:
            mean_diff[j] = 0.0
            sd1[j] = sd2[j] = rng.uniform(lo, hi)
        else:
            if isinstance(spec.mean_diff, tuple):
                mean_diff[j] = rng.uniform(*spec.mean_diff)
            else:
                mean_diff[j] = spec.mean_diff
            sd1[j] = rng.uniform(lo, hi)
            sd2[j] = rng.uniform(lo, hi)
        for target in (x_train, x_test):
            z = rng.standard_t(2, 2 * m) if is_t2[j] else rng.standard_normal(2 * m)
            target[:m, j] = sd1[j] * z[:m]
            target[m:, j] = mean_diff[j] + sd2[j] * z[m:]
    y = np.repeat(np.array([1, 2], dtype=np.int64), m)
    meta = {
        "is_noise": is_noise,
        "is_t2": is_t2,
        "mean_diff": mean_diff,
        "sd_class1": sd1,
        "sd_class2": sd2,
    }
    return GeneratedDataset(
        x_train=x_train, y_train=y, x_test=x_test, y_test=y.copy(),
        variable_meta=meta, seed=seed, spec=spec,
    )


def write_dataset(dataset, prefix):
    """Write a generated dataset as CSVs plus a JSON sidecar.

    Files: ``<prefix>.train.csv``, ``<prefix>.train.labels``,
    ``<prefix>.test.csv``, ``<prefix>.test.labels`` and ``<prefix>.meta.json``
    (seed, setup parameters, per-variable ground truth).

    Returns the list of paths written.
    """
    meta = {
        "seed": dataset.seed,
        "setup": dataset.spec.to_json_dict(),
        "variables": {
            key: np.asarray(val).tolist() for key, val in dataset.variable_meta.items()
        },
    }
    texts = [
        (prefix + ".train.csv", _matrix_text(dataset.x_train)),
        (prefix + ".train.labels", _labels_text(check_labels(dataset.y_train)[0])),
        (prefix + ".test.csv", _matrix_text(dataset.x_test)),
        (prefix + ".test.labels", _labels_text(check_labels(dataset.y_test)[0])),
        (prefix + ".meta.json", json.dumps(meta) + "\n"),
    ]
    _write_files(texts)
    return [path for path, _ in texts]
