"""Import path kept for ``perfbench/worker.py``, which reads the
sanitizer verdict rows from here.  Scenarios live in the ``scenarios/``
corpus; the helper itself lives in :mod:`repro.chaos.checks`.
"""

from ..chaos.checks import _sanitizer_invariants

__all__ = ["_sanitizer_invariants"]
