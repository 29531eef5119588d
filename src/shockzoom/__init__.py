"""Local singular patterns of viscous conservation laws, at desk scale.

The package turns three asymptotic descriptions of u_t + f(u)_x = eps u_xx
into measurable numerical experiments: viscous traveling shocks, merging
shock pairs, and first-singularity formation profiles, each compared with
its rescaling limit on a fixed observation window.
"""
from .errors import (ConfigError, DegenerateError, EqualStatesError,
                     GridMismatchError, InstabilityError, MultipleRootsError,
                     NoBracketError, NoCrossingError, NonPositiveError,
                     NotConvergedError, NotLaxError, NotLaxWarning,
                     NotOrderedError, OutOfDomainError, ShockzoomError,
                     TauTooLateError)
from .flux import (BUILTIN_FLUXES, FluxModel, ShockData, burgers,
                   burgers_plus_linear, chord, make_flux, quartic_perturbed,
                   rankine_hugoniot)
from .grid import (GridFunction, Window, l1_distance, mass, max_forward_slope,
                   periodic_mass, trapezoid)
from .solver import (Clamped, OleinikReport, Periodic, SolverConfig,
                     oleinik_check, solve)
from .inviscid import (SmoothData, ZBoundsReport, ZPoint, blowup_time,
                       characteristic_value, two_shock, single_shock,
                       z_bounds_audit, z_eval, z_root)
from .profiles import (CauchyReport, MergingTriple, TravelingWave,
                       ZLimitReport, eternal_z, eternal_z_limit,
                       merging_initial, merging_wave, smoothstep,
                       transition_width, traveling_wave)
from .rescale import (FitResult, FormationFrameFit, FormationPoint, RateFit,
                      RescaleFrame, SnapshotInterpolant, convergence_rate,
                      fit_formation_frame, fit_shift, zoom_sample)
from .diagnostics import (KuznetsovReport, MembershipReport, PhaseAuditReport,
                          WCurve, almost_monotone_margin,
                          chord_region_membership, kuznetsov_audit,
                          phase_audit, phase_times, strip_deviation,
                          strip_profile_fit, w_curve)
from .scenarios import (SCENARIO_IDS, Scenario, blowup_map_minimum,
                        build_scenario, merging_shocks_scenario,
                        shock_consistency, shock_formation_scenario,
                        single_shock_scenario)
from .experiments import (ContractionReport, MassReport, ZoomOutcome,
                          contraction_check, formation_zoom, kuznetsov_sweep,
                          mass_drift_check, merging_surrogate, merging_zoom,
                          refined_dx, single_shock_zoom, suite_cubic_bounds,
                          suite_oleinik, suite_sandwich)

__version__ = "0.1.0"
