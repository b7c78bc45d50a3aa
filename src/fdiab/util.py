"""Shared helpers: dB conversions, deterministic RNG substreams and field checks."""

import functools
import hashlib
import operator
from dataclasses import field, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class FieldError(ValueError):
    """A value a dataclass field cannot take. The message starts with the
    field's path; an empty path marks a rule over several fields."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path, self.message = path, message


def bounded(default, bounds):
    """A dataclass field with a default and bounds such as ">= 0, < 1",
    which check_bounds enforces; a default of dataclasses.MISSING makes the
    field required."""
    return field(default=default, metadata={"bounds": bounds})


def same_as(cls, name):
    """A dataclass field with the default and bounds of cls's field name, so
    that one declaration serves both classes."""
    f = {f.name: f for f in fields(cls)}[name]
    return field(default=f.default, metadata=f.metadata)


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@functools.lru_cache(maxsize=None)
def _parsed_bounds(cls):
    """(name, bounds, ((compare, limit), ...)) for each bounded field of cls,
    parsed once per class, not on each build of a value object (SiGeometry:
    once per node in node_direct_taps, once per separation in prototype)."""
    out = []
    for f in fields(cls):
        if "bounds" in f.metadata:
            clauses = (clause.split() for clause in f.metadata["bounds"].split(","))
            parsed = tuple((_COMPARE[op], float(limit)) for op, limit in clauses)
            out.append((f.name, f.metadata["bounds"], parsed))
    return tuple(out)


def check_bounds(obj):
    """Raise FieldError naming the first field of obj outside its bounds, and
    its bounds up to the first one broken; NaN is outside every bound, None
    (an optional field unset) inside."""
    for name, bounds, clauses in _parsed_bounds(type(obj)):
        value = getattr(obj, name)
        if value is None:
            continue
        for k, (compare, limit) in enumerate(clauses):
            if not compare(value, limit):
                shown = ",".join(bounds.split(",")[: k + 1])
                raise FieldError(name, f"must be {shown}, got {value!r}")


def dbm_to_watt(dbm):
    return 10.0 ** ((np.asarray(dbm) - 30.0) / 10.0)


def watt_to_dbm(watt):
    return 10.0 * np.log10(watt) + 30.0


def mean_power_watt(samples):
    return float(np.mean(np.abs(samples) ** 2))


def mean_power_dbm(samples):
    """Mean power of complex baseband samples (1-ohm convention) in dBm."""
    return float(watt_to_dbm(mean_power_watt(samples)))


def _token_to_int(token):
    if isinstance(token, (bool, np.bool_)):
        return int(token)
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFFFFFFFFFF
    if isinstance(token, (float, np.floating)):
        return int(np.float64(token).view(np.uint64))
    if isinstance(token, str):
        return int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")
    raise TypeError(f"unsupported substream token: {token!r}")


def substream(seed, *tokens):
    """Independent, reproducible RNG derived from a root seed and a token path.

    Identical (seed, tokens) always yield the same stream no matter how many
    other substreams were consumed before, so a result does not depend on the
    order in which its parts are evaluated. An integer root seed must lie in
    [0, 2**64): tokens are reduced to 64 bits, which would alias -1 with
    2**64 - 1 and 2**64 with 0.
    """
    if isinstance(seed, (int, np.integer)) and not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    entropy = [_token_to_int(seed)] + [_token_to_int(t) for t in tokens]
    return np.random.default_rng(np.random.SeedSequence(entropy))
