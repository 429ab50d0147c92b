"""Exact computer algebra for symbol systems of symmetric forms and the
projective models they generate."""

from .errors import (AlgebraError, ContextMismatchError, DegreeCapExceeded,
                     HomogeneityError, ImmersionError, InvalidSymbolSystem,
                     ParseError, SaturationPreconditionError)
from .groebner import (GroebnerBasis, buchberger, graded_component,
                       is_zero_dimensional, saturate_ideal)
from .jets import (CartanReport, FFSystem, JetFiltration, Parametrization,
                   cartan_check, extract_fundamental_forms, jet_filtration)
from .model import (EulerModel, ProjectivePoint, build_model, euler_act,
                    group_act, implicitize, orbit_curve_degree, phi_eval,
                    pullback)
from .poly import (GREVLEX, LEX, MonomialOrder, Polynomial, VarContext,
                   compose_linear, context, contract, evaluate,
                   format_polynomial, translate)
from .spaces import (FormSpace, kernel_of_map, monomials_of_degree,
                     vanishing_space)
from .specfiles import (SymbolFile, format_symbol_file, parse_param_file,
                        parse_polynomial, parse_symbol_file, system_from_file)
from .systems import (SaturationResult, SymbolSystem, assemble, from_polynomial,
                      full_system, is_saturated, order, prolong, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
