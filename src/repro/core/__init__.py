"""The storage schemes and client-facing API (the paper's contribution).

Every scheme is a composition of the :mod:`repro.core.policy` layers
(placement x dispatch x completion x fault-reaction x write), named in
:data:`repro.core.policy.compose.COMPOSITIONS` and run by the one
engine-agnostic class :class:`repro.core.pipeline.PolicyScheme`.  The
paper's schemes, as compared in Chapter 6:

* ``"raid0"`` — plain striping, zero redundancy.
* ``"rraid-s"`` — rotated replication + speculative access.
* ``"rraid-a"`` — rotated replication + adaptive multi-round access.
* ``"robustore"`` — LT-coded redundancy + speculative access (the
  paper's contribution).

The Fig 2-2 baselines (``"raid5"``, ``"raid0+1"``), the §5.2.1 ablation
(``"robustore-rs"``) and the further cross-products (``"lt+adaptive"``,
``"mirror+adaptive"``, ``"rs+adaptive"``, ``"regen-msr"``,
``"regen-mbr"``) sit in the same registry;
:func:`repro.core.pipeline.scheme_class` builds the class for any of
them.  :mod:`repro.core.api` wraps the schemes in the
open/read/write/close interface of §4.3.1.
"""

from repro.core.pipeline import PolicyScheme, scheme_class
from repro.core.policy.compose import COMPOSITIONS

__all__ = [
    "COMPOSITIONS",
    "PolicyScheme",
    "scheme_class",
]
