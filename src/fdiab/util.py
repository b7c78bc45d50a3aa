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
    which check_bounds enforces."""
    return field(default=default, metadata={"bounds": bounds})


def same_as(cls, name):
    """A dataclass field with the default and bounds of cls's field name, so
    that one declaration serves both classes."""
    f = {f.name: f for f in fields(cls)}[name]
    return field(default=f.default, metadata=f.metadata)


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def check_bounds(obj):
    """Raise FieldError naming the first field of obj outside its bounds;
    NaN is outside every bound."""
    for f in fields(obj):
        if "bounds" not in f.metadata:
            continue
        value = getattr(obj, f.name)
        for clause in f.metadata["bounds"].split(","):
            op, limit = clause.split()
            if not _COMPARE[op](value, float(limit)):
                raise FieldError(f.name, f"must be {f.metadata['bounds']}, got {value!r}")


def dbm_to_watt(dbm):
    return 10.0 ** ((np.asarray(dbm) - 30.0) / 10.0)


def watt_to_dbm(watt):
    return 10.0 * np.log10(watt) + 30.0


def mean_power_watt(samples):
    return float(np.mean(np.abs(samples) ** 2))


def mean_power_dbm(samples):
    """Mean power of complex baseband samples (1-ohm convention) in dBm."""
    return float(watt_to_dbm(mean_power_watt(samples)))


@functools.lru_cache(maxsize=256)
def _str_token_to_int(token):
    # Substream paths reuse a handful of names ("access-shadow", "si", ...),
    # so each is hashed once per process.
    return int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")


def _token_to_int(token):
    if isinstance(token, (bool, np.bool_)):
        return int(token)
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFFFFFFFFFF
    if isinstance(token, (float, np.floating)):
        return int(np.float64(token).view(np.uint64))
    if isinstance(token, str):
        return _str_token_to_int(token)
    raise TypeError(f"unsupported substream token: {token!r}")


def substream(seed, *tokens):
    """Independent, reproducible RNG derived from a root seed and a token path.

    Identical (seed, tokens) always yield the same stream no matter how many
    other substreams were consumed before, which is what makes parallel and
    sequential evaluation bit-identical. An integer root seed must lie in
    [0, 2**64): tokens are reduced to 64 bits, which would alias -1 with
    2**64 - 1 and 2**64 with 0.
    """
    if isinstance(seed, (int, np.integer)) and not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    entropy = [_token_to_int(seed)] + [_token_to_int(t) for t in tokens]
    return np.random.default_rng(np.random.SeedSequence(entropy))
