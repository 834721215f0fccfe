"""``MB`` and ``AccessConfig`` under their original import path.

The access engine lives in :mod:`repro.accesscore`; import from there.
This module stays only because the benchmark under ``perfbench/``
imports these two names from here.
"""

from __future__ import annotations

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB

__all__ = ["AccessConfig", "MB"]
