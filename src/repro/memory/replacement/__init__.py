"""Cache replacement policies.

Exposes all policies the paper discusses plus :func:`make_policy`, the
name-based factory used by CPU specs and the identification tools:

>>> make_policy("PLRU", 8).name
'PLRU'
>>> make_policy("QLRU_H11_M1_R0_U0", 16).name
'QLRU_H11_M1_R0_U0'
"""

from __future__ import annotations

import random
from typing import Optional

from .adaptive import (
    AdaptivePolicy,
    DedicatedRange,
    PselCounter,
    SetDuelingConfig,
)
from .base import LazySets, ReplacementPolicy, SetState, simulate_hits
from .lru import FIFO, LRU
from .mru import MRU, MRUSandyBridge
from .permutation import (
    PermutationPolicy,
    PermutationSpec,
    fifo_spec,
    lru_spec,
)
from .plru import PLRU
from .qlru import QLRU, QLRUSpec, meaningful_qlru_specs
from .random_policy import RandomReplacement

_SIMPLE_POLICIES = {
    "LRU": LRU,
    "FIFO": FIFO,
    "PLRU": PLRU,
    "MRU": MRU,
    "MRU_SB": MRUSandyBridge,
    "RANDOM": RandomReplacement,
}


def make_policy(name: str, associativity: int,
                rng: Optional[random.Random] = None) -> ReplacementPolicy:
    """Create a policy by name (``"PLRU"``, ``"QLRU_H00_M1_R2_U1"``...)."""
    upper = name.strip().upper()
    cls = _SIMPLE_POLICIES.get(upper)
    if cls is not None:
        return cls(associativity, rng=rng)
    if upper.startswith("QLRU_"):
        return QLRU.from_name(associativity, upper, rng=rng)
    raise ValueError("unknown replacement policy: %r" % (name,))


def known_policy_names(associativity: int) -> list:
    """Names of all deterministic candidate policies for *associativity*.

    This is the search space of the policy-identification tool: the
    classic policies plus every meaningful deterministic QLRU variant.
    """
    names = ["LRU", "FIFO", "MRU", "MRU_SB"]
    if associativity & (associativity - 1) == 0:
        names.append("PLRU")
    names.extend(spec.name for spec in meaningful_qlru_specs())
    return names


__all__ = [
    "AdaptivePolicy",
    "DedicatedRange",
    "FIFO",
    "LRU",
    "LazySets",
    "MRU",
    "MRUSandyBridge",
    "PLRU",
    "PermutationPolicy",
    "PermutationSpec",
    "PselCounter",
    "QLRU",
    "QLRUSpec",
    "RandomReplacement",
    "ReplacementPolicy",
    "SetDuelingConfig",
    "SetState",
    "fifo_spec",
    "known_policy_names",
    "lru_spec",
    "make_policy",
    "meaningful_qlru_specs",
    "simulate_hits",
]
