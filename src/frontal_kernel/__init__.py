"""Exact computer algebra for frontal map germs and wave fronts.

The package decides frontality of polynomial map germs (C^n, 0) -> (C^{n+1}, 0),
constructs Nash lifts and generating families of wave fronts, and computes
frontal singularity invariants: image equations, Milnor numbers, the frontal
Milnor number, the frontal codimension, the Jacobian modules, logarithmic
vector fields and Saito's freeness test.  All arithmetic is exact over Q.
"""

from .basis import (INFINITE, Limits, ResourceLimitError, StdBasis, eliminate,
                    ideal_quotient, membership, membership_certificate,
                    normal_form, saturation, std, subquotient_dimension,
                    syzygies, vs_dimension)
from .derlog import (DerlogError, FreenessReport, LogDerivations, LogField,
                     derlog, epsilon_split, is_free_divisor)
from .genfam import (GenFamError, GeneratingFamily, critical_set_certificate,
                     discriminant, generating_family, generating_family_of,
                     verify_discriminant_equals_image)
from .germs import (DivisionError, GermError, MapGerm, NashData,
                    PrenormalError, PrenormalForm, corank, frontal_lift,
                    germ, is_frontal, is_wavefront, multigerm, multiplicity,
                    nash_lift, prenormal_candidates, ramification_ideal)
from .invariants import (GoodEquation, ImageData, InvariantError,
                         PlaneCurveInvariants, SamuelEstimate, SiersmaResult,
                         UnfoldingSpec, ValueSemigroup, M_F_dimension,
                         conductor_colength, frontal_codimension,
                         frontal_milnor_siersma, good_equation,
                         hat_M_dimension, image_equation, meets_origin_again,
                         milnor_number, piene_lambda, plane_curve_invariants,
                         samuel_multiplicity_estimate, siersma_count,
                         unfolding, unfolding_image_equation, value_semigroup)
from .ring import (Ordering, Poly, Ring, associates, exact_divide,
                   quasihomogeneous_weights, ring)

__version__ = "1.0.0"

__all__ = [
    "INFINITE", "Limits", "ResourceLimitError", "StdBasis", "eliminate",
    "ideal_quotient", "membership", "membership_certificate", "normal_form",
    "saturation", "std", "subquotient_dimension", "syzygies", "vs_dimension",
    "DerlogError", "FreenessReport", "LogDerivations", "LogField", "derlog",
    "epsilon_split", "is_free_divisor",
    "GenFamError", "GeneratingFamily", "critical_set_certificate",
    "discriminant", "generating_family", "generating_family_of",
    "verify_discriminant_equals_image",
    "DivisionError", "GermError", "MapGerm", "NashData", "PrenormalError",
    "PrenormalForm", "corank", "frontal_lift", "germ", "is_frontal",
    "is_wavefront", "multigerm", "multiplicity", "nash_lift",
    "prenormal_candidates", "ramification_ideal",
    "GoodEquation", "ImageData", "InvariantError", "PlaneCurveInvariants",
    "SamuelEstimate", "SiersmaResult", "UnfoldingSpec", "ValueSemigroup",
    "M_F_dimension", "conductor_colength", "frontal_codimension",
    "frontal_milnor_siersma", "good_equation", "hat_M_dimension",
    "image_equation", "meets_origin_again", "milnor_number", "piene_lambda",
    "plane_curve_invariants", "samuel_multiplicity_estimate",
    "siersma_count", "unfolding", "unfolding_image_equation",
    "value_semigroup",
    "Ordering", "Poly", "Ring", "associates", "exact_divide",
    "quasihomogeneous_weights", "ring",
    "__version__",
]
