"""Local singular patterns of viscous conservation laws, at desk scale.

The package turns three asymptotic descriptions of u_t + f(u)_x = eps u_xx
into measurable numerical experiments: viscous traveling shocks, merging
shock pairs, and first-singularity formation profiles, each compared with
its rescaling limit on a fixed observation window.
"""
from .errors import (ConfigError, InstabilityError, NoCrossingError,
                     NotLaxWarning, OutOfDomainError, ShockzoomError)
from .flux import (BUILTIN_FLUXES, FluxModel, ShockData, burgers,
                   burgers_plus_linear, chord, make_flux, quartic_perturbed,
                   rankine_hugoniot)
from .grid import (GridFunction, Window, l1_distance, max_forward_slope,
                   periodic_mass, trapezoid)
from .solver import (Clamped, OleinikReport, Periodic, SolverConfig,
                     oleinik_check, solve)
from .inviscid import (SmoothData, ZBoundsReport, blowup_time,
                       characteristic_value, z_bounds_audit, z_eval, z_exact,
                       z_root)
from .profiles import (CauchyReport, MergingTriple, TravelingWave,
                       ZLimitReport, eternal_z, eternal_z_limit,
                       exact_merging_wave, merging_initial, merging_wave,
                       smoothstep, transition_width, traveling_wave)
from .rescale import (FitResult, FormationPoint, RateFit, RescaleFrame,
                      SnapshotInterpolant, convergence_rate, fit_formation_frame,
                      fit_shift)
from .diagnostics import (PhaseAuditReport, almost_monotone_margin,
                          chord_region_margin, phase_audit, phase_times,
                          strip_profile_fit)
from .scenarios import (SCENARIO_IDS, Scenario, build_scenario,
                        merging_shocks_scenario, shock_formation_scenario,
                        single_shock_scenario)
from .experiments import (KuznetsovReport, ZoomOutcome, contraction_check,
                          formation_zoom, kuznetsov_sweep, mass_drift_check,
                          merging_surrogate, merging_zoom, refined_dx,
                          single_shock_zoom, suite_cubic_bounds, suite_oleinik,
                          suite_sandwich)

__version__ = "0.1.0"
