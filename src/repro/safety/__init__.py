"""Safety (PFH) quantification — Section 3 of the paper.

- :mod:`repro.safety.pfh`: plain bounds, no adaptation (Lemma 3.1);
- :mod:`repro.safety.killing`: bounds under task killing (Lemmas 3.2/3.3);
- :mod:`repro.safety.degradation`: bounds under service degradation
  (Lemma 3.4).
"""

from repro.safety.degradation import (
    omega,
    pfh_lo_degradation,
    pfh_lo_degradation_scenario,
)
from repro.safety.killing import (
    kill_probability,
    pfh_lo_killing,
    pfh_lo_killing_bounds,
    pfh_lo_killing_reference,
    survival_probability,
    survival_probability_at,
    timing_points,
)
from repro.safety.margins import (
    max_tolerable_failure_probability,
    required_profile_for_probability,
    safety_margin,
)
from repro.safety.pfh import (
    DEFAULT_MAX_REEXECUTIONS,
    max_rounds,
    minimal_uniform_reexecution,
    pfh_of_tasks,
    pfh_plain,
)

__all__ = [
    "max_tolerable_failure_probability",
    "required_profile_for_probability",
    "safety_margin",
    "omega",
    "pfh_lo_degradation",
    "pfh_lo_degradation_scenario",
    "kill_probability",
    "pfh_lo_killing",
    "pfh_lo_killing_bounds",
    "pfh_lo_killing_reference",
    "survival_probability",
    "survival_probability_at",
    "timing_points",
    "DEFAULT_MAX_REEXECUTIONS",
    "max_rounds",
    "minimal_uniform_reexecution",
    "pfh_of_tasks",
    "pfh_plain",
]
