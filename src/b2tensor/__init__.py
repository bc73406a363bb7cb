"""Exact tensor-power decompositions for the two fundamental so(5) modules.

Everything is integer arithmetic on a doubled weight lattice: no floats,
no tolerances. The public surface is re-exported here; the CLI lives in
b2tensor.cli.
"""

from .lattice import (
    Weight,
    WeylElement,
    WEYL_GROUP,
    ALPHA1,
    ALPHA2,
    OMEGA1,
    OMEGA2,
    RHO,
    POSITIVE_ROOTS,
    is_dominant,
    to_dominant_regular,
    dim_irrep,
)
from .series import LatticeSeries, singular_element, weight_multiplicities, denominator_product
from .engine import (
    MultiplicityFunction,
    tensor_power_weights,
    extract_multiplicities,
    decomposition,
    recur_multiplicity,
    m_extended,
    single_step_decompose,
    tensor_with_vector,
)
from .fans import (
    fan_power_direct,
    fan_with_zero,
    fan_closed_form,
    singular_power_direct,
    singular_power_projected,
    spinor_singular_closed,
    vector_singular_closed,
    fan_recursion_solve,
    fan_step_audit,
)
from . import closed_forms
