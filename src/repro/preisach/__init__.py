"""Discrete Preisach hysteresis model (comparison substrate).

The Preisach model is the other classical description of ferromagnetic
hysteresis: a weighted continuum of rectangular relays (hysterons) with
up/down switching thresholds ``alpha >= beta``.  It is included as a
cross-model baseline: identified from the Jiles-Atherton model's
first-order reversal curves (FORCs) via the Everett function, it should
predict the JA model's minor loops — and where it does not, the
difference is a property of the models, not of the discretisation.

* :mod:`repro.preisach.model` — the discrete relay grid with staircase
  state updates;
* :mod:`repro.preisach.identification` — FORC generation from a JA
  model and Everett-difference weight extraction.
"""

from repro.preisach.identification import (
    EverettMap,
    adaptive_nodes,
    everett_from_ja,
    everett_maps_from_ja,
    identify_ensemble_from_ja,
    identify_from_ja,
    identify_models_from_ja,
    weights_from_everett,
)
from repro.preisach.model import PreisachModel

__all__ = [
    "EverettMap",
    "PreisachModel",
    "adaptive_nodes",
    "everett_from_ja",
    "everett_maps_from_ja",
    "identify_ensemble_from_ja",
    "identify_from_ja",
    "identify_models_from_ja",
    "weights_from_everett",
]
