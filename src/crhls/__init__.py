"""Sharp Hardy-Littlewood-Sobolev machinery on model CR manifolds.

Public API is re-exported lazily (PEP 562) so that the command-line entry
point can pin BLAS thread counts through environment variables before the
first numpy import happens.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "Params": "core",
    "make_params": "core",
    "sharp_constant_DH": "core",
    "HPoint": "heisenberg",
    "group_mul": "heisenberg",
    "group_inv": "heisenberg",
    "hnorm": "heisenberg",
    "hdist": "heisenberg",
    "gauge_dist_sq": "heisenberg",
    "dilate": "heisenberg",
    "extremal_H": "heisenberg",
    "extremal_family": "heisenberg",
    "SpherePoint": "sphere",
    "sphere_dist": "sphere",
    "sphere_dist_sq": "sphere",
    "cayley": "sphere",
    "cayley_inv": "sphere",
    "cayley_jacobian": "sphere",
    "sphere_extremal": "sphere",
    "QuadratureGrid": "discretization",
    "sphere_grid": "discretization",
    "cylinder_grid": "discretization",
    "cylinder_shell_grid": "discretization",
    "KernelSpec": "discretization",
    "KernelMatrix": "discretization",
    "assemble_kernel": "discretization",
    "extremal_values": "discretization",
    "sphere_extremal_values": "discretization",
    "hnorm_values": "discretization",
    "distances_from_node": "discretization",
    "save_grid_csv": "discretization",
    "load_grid_csv": "discretization",
    "save_kernel_csv": "discretization",
    "load_kernel_csv": "discretization",
    "lp_norm": "functional",
    "bilinear_form": "functional",
    "rayleigh_quotient": "functional",
    "young_bound": "functional",
    "tail_integral_I1": "functional",
    "SubcriticalResult": "solver",
    "BlowupReport": "solver",
    "solve_subcritical": "solver",
    "continuation": "solver",
    "default_p_schedule": "solver",
    "blowup_diagnostic": "solver",
    "result_to_dict": "solver",
    "save_result_json": "solver",
    "LowerBoundResult": "experiments",
    "EpsInvarianceResult": "experiments",
    "MassPerturbationResult": "experiments",
    "lower_bound_experiment": "experiments",
    "eps_invariance_experiment": "experiments",
    "mass_perturbation_experiment": "experiments",
    "conformal_covariance_check": "experiments",
    "curvature_equation_residual": "experiments",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
