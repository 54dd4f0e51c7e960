"""Codes from quadratic-field lattices, rate bounds, and certified parameters.

Modules: numtheory (exact sieve tables and enclosed analytic quantities),
quadfield (fields, splitting, class groups, tower criterion), lenstra
(lattice boxes and code construction), bounds (rate bounds, schedules,
certificates), cli (command-line front end), enclosure (interval substrate).
"""

from .enclosure import HighReal, PASS, FAIL, INDETERMINATE
from .errors import (CapacityError, ConditionFailure, DomainError,
                     GvforgeError, IndeterminateError, TauSearchError)
from .numtheory import (PrimeTable, chebyshev_theta, kronecker_symbol,
                        log_integral, nth_prime, prime_count_ap, primorial_D,
                        sieve_primes)
from .quadfield import (ClassGroupSummary, PrimeIdealRecord, QuadraticField,
                        TowerCertificate, candidate_Sc, class_group_imaginary,
                        genus_two_rank_lower, golod_shafarevich_check,
                        make_field, prime_ideals_in_norm_range, splitting_type)
from .lenstra import (BoxSpec, LatticeEmbedding, LenstraCode, build_code,
                      enumerate_omega, find_tau, make_embedding,
                      norm_gap_check, residue_symbol, verify_code)
from .bounds import (BoundPoint, Certificate, ParamWitness, Schedule,
                     a_rq_upper_bounds, certify, check_conditions,
                     final_inequality_scan, gv_asymptotic, gv_bound,
                     growth_proxy, nfc_bound, plotkin_bound, search_params,
                     theorem1_schedule, theorem2_schedule)

__version__ = "0.1.0"
