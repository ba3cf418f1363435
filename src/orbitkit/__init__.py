"""orbitkit: exact-rational coadjoint orbit analysis for Lie algebras.

Subspace conditions, the infinitesimal normal-subgroup machine, Pukanszky
polarizations and parabolic data, all over arbitrary-precision rationals.

Importing the package loads none of its modules and binds no public name:
import each name from its module (`from orbitkit.liealg import orbit_record`),
so a caller pays only for the modules it uses.
"""

__version__ = "0.1.0"
