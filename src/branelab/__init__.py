"""Verification and deformation toolkit for brane structures on explicit
coordinate models R^a x T^b: exact trig-polynomial calculus, pointwise
sampled checks, presymplectic flow transport, first-order deformation
theory, and a scene-file batch front end.
"""

from .model import (CIRCLE, DEFAULT_FLOW, DEFAULT_PLAN, DEFAULT_TOL, LINE,
                    FlowOptions, ManifoldModel, SamplePlan, Tolerances,
                    extend_with_circle, extend_with_line, model_from_names)
from .fields import (NonFiniteCoefficientError, ScalarField, VectorField,
                     bracket, circle_average, directional, field_mul,
                     partial, q_antiderivative, reindex, substitute)
from .forms import (DegenerateFormError, DifferentialForm, Distribution,
                    EndoField, apply_form, d_scalar, endo_from_pair, ext_d,
                    horizontal_d, interior, is_type_11, lie_derivative, sharp,
                    two_form_from, wedge)
from .grammar import (ParseError, field_to_text, form_to_text, parse_field,
                      parse_form, parse_vector, vector_to_text)
from .integrate import FlowError, rk4_flow
from .report import CheckResult, Report
from .brane import (AmbientModel, BraneCandidate, RankDropError, ambient_for,
                    check_brane, check_brane_via_J, check_space_filling,
                    lift_form, local_normal_form, tau_F_subspace,
                    validate_candidate)
from .nearby import (BraneObstruction, FlowResult, GraphDeformation,
                     TransportedForm, closed1f_check, closed1f_residual,
                     convergence_order, flow, graph_deformation,
                     invariance_check, kernel_field, mapping_torus_check,
                     melanie_check, omega_f, slicewise_hamiltonian,
                     transport_brane)
from .infdef import (AverageObstruction, CircleTermsError, ComplexSlice,
                     InfDefPair, Type11Violation, build_infdef, check_infdef,
                     complex_slice, constant_type11_basis,
                     hamiltonian_generator, infdef_general_check,
                     pair_from_values, transverse_endo,
                     upsilon_image_check)
from .scene import (CheckSpec, Scene, SceneError, load_scene, parse_scene,
                    serialize_scene)

__version__ = "0.1.0"
