"""hibarrier: barrier-function invariance and contractivity checks for hybrid inclusions."""

__version__ = "0.1.0"

from .fields import ScalarField, SetValuedMap, gradient, clarke_support, image_samples  # noqa: E402,F401
from .geometry import (SetDescription, Leaf, Intersection, Union, Membership,  # noqa: E402,F401
                       projection, minkowski)
from .model import (HybridSystem, BarrierCandidate, HybridArc, KComplex,  # noqa: E402,F401
                    build_k_complex, validate_arc, scenario_classify)
from .certificates import CheckConfig, Verdict, UniquenessFunction  # noqa: E402,F401
from .simulate import solve, falsify_invariance, probe_contractivity, Horizon  # noqa: E402,F401
from .config import load_system, system_from_dict  # noqa: E402,F401
