"""Package-wide defaults shared across layers.

This module sits below everything else (it imports nothing from the
package) so both the application workloads and the :mod:`repro.api`
facade can agree on one default without creating an import cycle.
"""

__all__ = ["DEFAULT_SEED", "ADAPT_MODES"]

#: The one default RNG seed every workload entry point shares.  A
#: workload run with no explicit ``seed`` is deterministic and equal
#: across entry points (the ``execute_*`` functions, ``Session``
#: handles, the CLI).
DEFAULT_SEED = 0

#: The layout policies of an adaptive run: the feedback loop and its
#: three baselines.  Declared here so the parameter table
#: (:mod:`repro.api.params`) can offer them as choices without loading
#: the controller.
ADAPT_MODES = ("static", "balanced", "offline", "adaptive")
