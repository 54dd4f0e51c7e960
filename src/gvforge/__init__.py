"""Codes from quadratic-field lattices, rate bounds, and certified parameters.

Modules: numtheory (exact sieve tables and enclosed analytic quantities),
quadfield (fields, splitting, class groups, tower criterion), lenstra
(lattice boxes and the words of their points), translate (the translate
search and the codes construct builds), codefile (code files read back and
verified), bounds (rate bounds, witness conditions, schedules), certificate
(the certificate of certify and its inequality chain), sweep (the witness
search over many deltas), cli (command-line front end), enclosure
(interval substrate) with dyadic (its integer kernel), errors (the
exception types). Import the module you need, as in
`from gvforge import bounds`; the package itself imports none of them.
The package depends on no third-party package: `enclosure` is its own
pure-Python interval kernel. numpy and mpmath are test oracles only.
"""

__version__ = "0.1.0"
