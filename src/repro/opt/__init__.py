"""Exact-optimality baselines (ROADMAP item 2).

The paper's AL construction and O/E/O placement are greedy heuristics;
this package gives them a certified yardstick:

* :mod:`repro.opt.model` — a tiny MILP container (variables, linear
  rows, minimize objective);
* :mod:`repro.opt.lp` — a pure-python two-phase primal simplex for the
  LP relaxation;
* :mod:`repro.opt.bnb` — best-first branch-and-bound with LP bounding;
* :mod:`repro.opt.cover` — AL construction as weighted set cover,
  solved exactly, returning the same :class:`~repro.core.algorithms.CoverResult`
  objects as the greedy kernels;
* :mod:`repro.opt.placement` — joint VNF placement + O/E/O allocation
  as a MILP, returning :class:`~repro.core.placement.ChainPlacement`.

Everything is stdlib-only so CI needs no commercial solver; the
formulations follow the joint-placement MILPs of arXiv 1702.01154 and
the partial-order / anti-affinity constraints of arXiv 1705.10554.
"""

from repro.opt.bnb import MilpResult, solve_milp
from repro.opt.certificate import OptCertificate
from repro.opt.cover import (
    exact_weighted_cover,
    exact_weighted_cover_with_certificate,
)
from repro.opt.lp import LpSolution, solve_lp
from repro.opt.model import MilpModel
from repro.opt.placement import (
    exact_chain_placement,
    exact_chain_placement_with_certificate,
)

__all__ = [
    "LpSolution",
    "MilpModel",
    "MilpResult",
    "OptCertificate",
    "exact_chain_placement",
    "exact_chain_placement_with_certificate",
    "exact_weighted_cover",
    "exact_weighted_cover_with_certificate",
    "solve_lp",
    "solve_milp",
]
