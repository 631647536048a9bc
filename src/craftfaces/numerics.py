"""Deterministic numeric kernel: float64 tensors, seeded streams, and a
finite-difference gradient oracle.

Tensors are plain C-contiguous float64 numpy arrays; ``tensor`` is the
normalizing constructor and every public operation keeps outputs finite.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeError

__all__ = [
    "tensor",
    "RngStream",
    "softmax_rows",
    "finite_diff_grad",
]

DEFAULT_FD_STEP = 1e-4  # central differences at f64: truncation ~ h^2, rounding ~ eps/h


def tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


def _hash_parts(*parts: int):
    """A blake2b hash fed each integer part, in order."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(int(p).to_bytes(16, "little", signed=True))
    return h


def _mix64(*parts: int) -> int:
    """Collapse integer parts into one 64-bit key (blake2b, order sensitive)."""
    return int.from_bytes(_hash_parts(*parts).digest(), "little")


_THREAD = threading.local()


def _keyed_generator(key: int) -> np.random.Generator:
    """This thread's one Philox generator, put in the exact state that
    ``Philox(key=key)`` starts in: the key, a zero counter and an empty
    output buffer. Re-keying skips building a generator (and the OS-entropy
    seed sequence it always draws) per draw; the state setter reads plain
    Python ints, so the state needs no numpy arrays either. Each thread
    keeps one such state and rewrites only its key: the setter copies every
    value out, so the state is never shared with the generator."""
    keyed = getattr(_THREAD, "keyed", None)
    if keyed is None:
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        keyed = _THREAD.keyed = (np.random.Generator(np.random.Philox(key=0)), state, state["state"]["key"])
    gen, state, key_words = keyed
    key_words[0] = key
    gen.bit_generator.state = state
    return gen


@dataclass
class RngStream:
    """Counter-based deterministic random stream.

    Draw number ``counter`` of the stream at split path ``path`` is the
    first output of ``Generator(Philox(key=_mix64(seed, *path, counter)))``,
    and every draw advances the counter, so the value sequence depends only
    on the draw order, never on draw sizes. The generator object is one
    per thread, re-keyed for each draw (Salmon et al., SC 2011: a
    counter-based stream is a key and a counter), so streams on separate
    threads stay independent. ``split`` creates statistically independent
    child streams; workers must each own their own stream.

    The seed and split path are hashed once per stream, on its first draw;
    each draw copies that hash and adds only the counter, which gives the
    key ``_mix64`` would.
    """

    seed: int
    counter: int = 0
    _path: tuple[int, ...] = field(default=(), repr=False)
    _prefix: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # blake2b objects do not pickle; the copy re-hashes on its first draw
        return {**self.__dict__, "_prefix": None}

    def split(self, key: int | str) -> "RngStream":
        """Independent child stream identified by an integer or label."""
        if isinstance(key, str):
            key = _mix64(int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little"))
        return RngStream(seed=self.seed, _path=self._path + (int(key),))

    def _key(self) -> int:
        """``_mix64(seed, *path, counter)`` for the current counter."""
        if self._prefix is None:
            self._prefix = _hash_parts(self.seed, *self._path)
        h = self._prefix.copy()
        h.update(int(self.counter).to_bytes(16, "little", signed=True))
        return int.from_bytes(h.digest(), "little")

    def _generator(self) -> np.random.Generator:
        gen = _keyed_generator(self._key())
        self.counter += 1
        return gen

    def normal(self, shape) -> np.ndarray:
        return self._generator().standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._generator().uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._generator().integers(low, high, size=shape)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a matrix or a stack of matrices, as a
    new array: ``_softmax_in_place`` on a C-ordered copy of ``m``, whose
    bytes are left as they were."""
    m = np.array(m, dtype=np.float64, order="C")
    if m.ndim < 2:
        raise ShapeError(f"softmax_rows: expected a matrix, got shape {m.shape}")
    return _softmax_in_place(m)


def _softmax_in_place(m: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float64 stack ``m`` with the softmax of
    its last axis, stabilized by subtracting each row's max, and return it.
    The max starts from -inf, below which no max falls, so numpy skips the
    pass that copies out each row's first entry (much of the max's time on
    short rows). A NaN max, whose payload may differ, is taken again bare:
    the output has its bits."""
    mx = m.max(axis=-1, keepdims=True, initial=-np.inf)
    m -= m.max(axis=-1, keepdims=True) if np.isnan(mx).any() else mx
    np.exp(m, out=m)
    m /= m.sum(axis=-1, keepdims=True, out=mx)  # the row sums overwrite the max, no longer read
    return m


def finite_diff_grad(f, x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a tensor.

    (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate. Exact (up to
    rounding) on polynomials of degree <= 2.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    x = tensor(x).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"finite_diff_grad: non-finite value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
