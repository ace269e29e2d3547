"""Baselines the experiments compare AL-VC against.

* random AL selection — the construction of the authors' earlier work [15];
* flat (no-clustering) fabric — conventional DCN routing and update costs;
* all-electronic VNF placement — the no-optimization chain deployment.

The exact minimum AL the greedy is measured against (E9) is not a
baseline module: it is ``AlConstructor(dcn,
strategy=AlConstructionStrategy.EXACT)``, which runs the certified cover
MILP of :mod:`repro.opt.cover`.
"""

from repro.baselines.electronic_placement import all_electronic_placement
from repro.baselines.no_clustering import FlatNetworkBaseline
from repro.baselines.random_al import random_abstraction_layer

__all__ = [
    "FlatNetworkBaseline",
    "all_electronic_placement",
    "random_abstraction_layer",
]
