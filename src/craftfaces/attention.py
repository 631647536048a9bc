"""Scaled dot-product attention with an optional identity channel.

The identity variant augments queries and keys with a shared embedding:

    Q' = X W_q + 1 (id U_q)        K' = X W_k + 1 (id U_k)

Every spatial token receives the same identity term, which is algebraically
the block product [X ; 1 id][W ; U]. Values are left untouched, so the
identity code biases where attention looks without rewriting content.
Single head, no positional encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .numerics import _softmax_in_place, tensor

__all__ = [
    "AttentionWeights",
    "ExtendedAttentionWeights",
    "self_attention",
    "identity_self_attention",
    "cross_attention",
    "attention_map",
]


@dataclass(frozen=True, eq=False)
class AttentionWeights:
    """Projection maps W_q, W_k, W_v, all with head dimension d columns.

    For cross-attention, W_k and W_v act on the conditioning dimension
    instead of the token dimension.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[1]
        if self.w_k.shape[1] != d or self.w_v.shape[1] != d:
            raise ShapeError(
                f"attention weights must share head dim: "
                f"{self.w_q.shape}, {self.w_k.shape}, {self.w_v.shape}"
            )

    @property
    def head_dim(self) -> int:
        return self.w_q.shape[1]


class _IdentityTerms(NamedTuple):
    """What an identity embedding adds to every query and key of an item."""

    q: np.ndarray
    k: np.ndarray


@dataclass(frozen=True, eq=False)
class ExtendedAttentionWeights:
    """Base weights plus identity-block columns U_q, U_k (d_id x d)."""

    base: AttentionWeights
    u_q: np.ndarray
    u_k: np.ndarray

    def __post_init__(self):
        d = self.base.head_dim
        if self.u_q.shape[1] != d or self.u_k.shape[1] != d:
            raise ShapeError(
                f"identity blocks must share head dim {d}: "
                f"{self.u_q.shape}, {self.u_k.shape}"
            )
        if self.u_q.shape[0] != self.u_k.shape[0]:
            raise ShapeError(
                f"identity blocks must share id dim: {self.u_q.shape} vs {self.u_k.shape}"
            )

    @property
    def id_dim(self) -> int:
        return self.u_q.shape[0]

    def identity_terms(self, identity: np.ndarray, items: tuple[int, ...] = ()) -> _IdentityTerms:
        """``identity @ U_q`` and ``identity @ U_k``, the terms that every
        query and key of an item gains: ``(1, d)`` rows for an embedding
        ``(id,)`` shared by every item, or ``items + (1, d)`` for one
        embedding per item, ``items + (id,)``. With no ``items`` (one token
        matrix), any shape of ``id`` entries is the shared embedding. One
        ``(1, id)`` row per item: ``(B, id) @ U`` would round differently."""
        identity = tensor(identity)
        if not items:
            identity = identity.reshape(-1)
        if identity.shape not in ((self.id_dim,), items + (self.id_dim,)):
            raise ShapeError(
                f"identity embedding {identity.shape} vs identity block {self.u_q.shape} "
                f"and {items} items"
            )
        rows = identity[..., None, :]
        return _IdentityTerms(rows @ self.u_q, rows @ self.u_k)


def _check_tokens(tokens: np.ndarray, w: np.ndarray, what: str) -> np.ndarray:
    """Tokens ``(n, d)`` or a batch ``(B, n, d)`` whose d matches ``w``."""
    tokens = tensor(tokens)
    if tokens.ndim not in (2, 3) or tokens.shape[-1] != w.shape[0]:
        raise ShapeError(f"{what}: tokens {tokens.shape} vs weight {w.shape}")
    return tokens


def _softmax_scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The attention map softmax(Q K^T / sqrt(d)), row by row, for one
    (n, d) pair or a stack of them: the scores are scaled and normalised in
    the one array their product allocates."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= math.sqrt(q.shape[-1])
    return _softmax_in_place(scores)


class _Forward(NamedTuple):
    """What one attention forward computes; the backward in
    ``diffusion._denoise_loss_and_grad`` reads all of it."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    att: np.ndarray

    @property
    def out(self) -> np.ndarray:
        return self.att @ self.v


def _forward(
    tokens: np.ndarray,
    identity: np.ndarray | _IdentityTerms | None,
    w: AttentionWeights | ExtendedAttentionWeights,
) -> _Forward:
    """Self-attention on tokens ``(n, d)``, or on a batch ``(B, n, d)``
    item by item; with an identity embedding (``(id,)``, shared by a
    batch, or ``(B, id)``), Q and K gain ``identity @ U_q`` and
    ``identity @ U_k``, which a caller that reuses them may pass instead,
    as the embedding's ``w.identity_terms``.
    With ``identity=None`` only the base weights are used. A batch gives
    each item the same bits as its own 2-D call: every product is the
    per-item matrix (or row-times-matrix) product, stacked."""
    base = w.base if isinstance(w, ExtendedAttentionWeights) else w
    tokens = _check_tokens(tokens, base.w_q, "attention")
    q = tokens @ base.w_q
    k = tokens @ base.w_k
    if identity is not None:
        if not isinstance(w, ExtendedAttentionWeights):
            raise ShapeError("attention: identity embedding requires extended weights")
        if not isinstance(identity, _IdentityTerms):
            identity = w.identity_terms(identity, tokens.shape[:-2])
        q += identity.q
        k += identity.k
    att = _softmax_scores(q, k)
    return _Forward(q, k, tokens @ base.w_v, att)  # V after the map: never alive beside its scores


def self_attention(tokens: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V with Q, K, V projected from ``tokens``."""
    return _forward(tokens, None, w).out


def identity_self_attention(
    tokens: np.ndarray, identity: np.ndarray | None, w: ExtendedAttentionWeights
) -> np.ndarray:
    """Self-attention whose Q and K carry a shared identity embedding.

    The same embedding augments every row, so equal (tokens, identity)
    inputs produce identical attention regardless of batch or call site.
    A zero embedding reduces exactly to ``self_attention`` on the base
    weights, and ``identity=None`` is that call.
    """
    return _forward(tokens, identity, w).out


def cross_attention(
    tokens: np.ndarray, cond_tokens: np.ndarray, w: AttentionWeights
) -> np.ndarray:
    """Queries from ``tokens``, keys and values from ``cond_tokens``."""
    tokens = _check_tokens(tokens, w.w_q, "cross_attention")
    cond_tokens = _check_tokens(cond_tokens, w.w_k, "cross_attention (conditioning)")
    return _softmax_scores(tokens @ w.w_q, cond_tokens @ w.w_k) @ (cond_tokens @ w.w_v)


def attention_map(
    tokens: np.ndarray,
    identity: np.ndarray | None,
    w: AttentionWeights | ExtendedAttentionWeights,
) -> np.ndarray:
    """Post-softmax attention matrix (n x n), without applying V.

    With ``identity=None`` the base weights are used; an
    ExtendedAttentionWeights argument then contributes only its base.
    """
    return _forward(tokens, identity, w).att
