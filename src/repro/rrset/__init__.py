"""Reverse-influence-sampling (RIS) substrate.

Random reverse-reachable (RR) sets (:mod:`repro.rrset.rrgen`; the vectorized
batched sampler lives in :mod:`repro.rrset.batch`), the greedy
max-coverage ``NodeSelection`` procedure (:mod:`repro.rrset.node_selection`),
the IMM algorithm of Tang et al. with the Chen-2018 regeneration fix
(:mod:`repro.rrset.imm`), its prefix-preserving multi-budget extension PRIMA —
Algorithm 2 of the paper (:mod:`repro.rrset.prima`) — and the classic CELF
Monte-Carlo greedy (:mod:`repro.rrset.greedy_mc`).  TIM's KPT/θ phases live with the Com-IC
baselines that use them (:mod:`repro.baselines._comic_common`); the
influence oracle built on PRIMA's prefix-preserving order lives in
:mod:`repro.store`.
"""

from repro.rrset.batch import (
    BACKEND_ENV,
    BACKENDS,
    TriggerCSR,
    batch_generate_rr_sets,
    build_trigger_csr,
    resolve_backend,
    sample_trigger_members,
    supports_batched,
)
from repro.rrset.greedy_mc import GreedyMCResult, greedy_mc
from repro.rrset.imm import IMMResult, imm
from repro.rrset.node_selection import greedy_max_coverage, node_selection
from repro.rrset.prima import PRIMAResult, prima
from repro.rrset.rrgen import RRCollection, generate_rr_set

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "GreedyMCResult",
    "IMMResult",
    "PRIMAResult",
    "RRCollection",
    "TriggerCSR",
    "batch_generate_rr_sets",
    "build_trigger_csr",
    "generate_rr_set",
    "sample_trigger_members",
    "greedy_max_coverage",
    "greedy_mc",
    "imm",
    "node_selection",
    "prima",
    "resolve_backend",
    "supports_batched",
]
