"""Critical points of smooth isotropic Gaussian random fields.

Expected counts by Morse index and the height distributions of those
critical points, on R^N and on the N-sphere, computed through random-matrix
representations of the conditional Hessian.  Closed forms cover N = 2,
low-dimensional quadrature and Monte Carlo cover the rest, and a synthesis
plus detection pipeline checks the theory against simulated fields.
"""
from .errors import (CritfieldError, ParameterError, DegenerateEnsembleError,
                     InvalidCovarianceError, ImpossibleFieldError, RegimeError,
                     MethodError, UndefinedDistributionError,
                     InsufficientDataError, ConfigError)
from .goi import (GoiEnsemble, IndexedFunctional, NumericConfig,
                  validate_ensemble, log_k_norm, sample_goi,
                  ordered_eigenvalue_density, goi_expectation)
from ._kacrice import (CritResult, count_route, expected_counts,
                       height_pdf_result, height_cdf_result, resolve_method)
from .euclidean import EuclideanModel, model_from_rho, model_from_shape
from .sphere import (SphereModel, model_from_C, model_from_legendre,
                     sphere_area, euler_characteristic)
from .sphere import model_from_shape as sphere_model_from_shape
from .fyodorov import GoeReduction, reduced_expectation
from .fields import (SynthesisSpec, PlanarWaveField, SphericalHarmonicField,
                     synthesize, sh_basis, tangent_frames)
from .detect import (CriticalPoint, DetectionResult, find_critical_points,
                     find_critical_points_plane, find_critical_points_sphere,
                     HeightSample, empirical_height_distribution, ks_critical,
                     SimReport, simulation_study, write_points_csv)

__version__ = "0.1.0"

__all__ = [
    "CritfieldError", "ParameterError", "DegenerateEnsembleError",
    "InvalidCovarianceError", "ImpossibleFieldError", "RegimeError",
    "MethodError", "UndefinedDistributionError", "InsufficientDataError",
    "ConfigError",
    "GoiEnsemble", "IndexedFunctional", "NumericConfig",
    "validate_ensemble", "log_k_norm", "sample_goi",
    "ordered_eigenvalue_density", "goi_expectation", "CritResult",
    "expected_counts", "height_pdf_result", "height_cdf_result",
    "resolve_method", "count_route",
    "EuclideanModel", "model_from_rho", "model_from_shape",
    "SphereModel", "model_from_C", "model_from_legendre",
    "sphere_model_from_shape", "sphere_area", "euler_characteristic",
    "GoeReduction", "reduced_expectation",
    "SynthesisSpec", "PlanarWaveField", "SphericalHarmonicField",
    "synthesize", "sh_basis", "tangent_frames",
    "CriticalPoint", "DetectionResult", "find_critical_points",
    "find_critical_points_plane", "find_critical_points_sphere",
    "HeightSample", "empirical_height_distribution", "ks_critical",
    "SimReport", "simulation_study", "write_points_csv",
    "__version__",
]
