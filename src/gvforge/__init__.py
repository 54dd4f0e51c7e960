"""Codes from quadratic-field lattices, rate bounds, and certified parameters.

Modules: numtheory (exact sieve tables and enclosed analytic quantities),
quadfield (fields, splitting, class groups, tower criterion), lenstra
(lattice boxes and code construction), bounds (rate bounds, schedules,
certificates), cli (command-line front end), enclosure (interval substrate).
"""

from .enclosure import HighReal, PASS, FAIL, INDETERMINATE
from .errors import (CapacityError, ConditionFailure, DomainError,
                     GvforgeError, IndeterminateError, TauSearchError)
from .numtheory import (chebyshev_theta, kronecker_symbol, nth_prime,
                        primorial_D, sieve_primes)
from .quadfield import (ClassGroupSummary, PrimeIdealRecord, QuadraticField,
                        TowerCertificate, class_group_imaginary,
                        genus_two_rank_lower, golod_shafarevich_check,
                        make_field, prime_ideals_in_norm_range, splitting_type)
from .lenstra import (BoxSpec, LatticeEmbedding, LenstraCode, build_code,
                      enumerate_omega, find_tau, make_embedding,
                      residue_symbol, verify_code)
from .bounds import (BoundPoint, Certificate, ParamWitness, Schedule, certify,
                     check_conditions, gv_bound, nfc_bound, plotkin_bound,
                     search_params, theorem1_schedule, theorem2_schedule)

__version__ = "0.1.0"
