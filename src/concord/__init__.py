"""concord: exact computation of knot/link concordance obstructions.

The package computes, in exact rational arithmetic, the desk-scale
obstruction theory for satellite/doubling constructions: Alexander
polynomials and modules from Seifert matrices, Levine signature functions
and their circle integrals with certified error bounds, Blanchfield
isotropy lattices, free-group derived-series depths of doubling curves,
and symbolic first-order signature sets feeding slice/solvability
verdicts.
"""

from concord.laurent import (
    LaurentPoly,
    Rational,
    RationalFunctionModPoly,
    factor,
    gcd,
    lcm,
    normalize,
)
from concord.certified import Interval
from concord.seifert import (
    SeifertMatrix,
    SignatureFunction,
    alexander_poly,
    arf,
    connected_sum,
    mirror,
    rho0,
    signature_at,
    signature_function,
)
from concord.alexmod import (
    AlexModule,
    BlanchfieldForm,
    ModElement,
    Submodule,
    SubmoduleLattice,
    UnsupportedModule,
    blanchfield_form,
    isotropic_submodules,
    module_from_seifert,
    replay_columns,
    smith_normal_form,
    support,
)
from concord.freegroup import (
    DepthResult,
    FreeWord,
    ResourceCapExceeded,
    WreathElement,
    bing_curve,
    derived_depth,
    parse_word,
)
from concord.construction import (
    AssumedDepth,
    BaseKnot,
    BingDouble,
    ConnectedSum,
    ConstructionError,
    CurveSpec,
    Infect,
    LinkingZeroDepth,
    Multiple,
    RDouble,
    SliceLinkAssumed,
    SolvDegree,
    TrivialLink,
    WordDepth,
    expand_clones,
    operator_pattern,
    rdouble_tower,
    solvability_upper_bound,
)
from concord.rhocalc import (
    Axioms,
    FirstOrderSignatures,
    MissingAlexClass,
    RhoAtom,
    RhoTerm,
    first_order_signatures,
    provably_nonzero,
)
from concord.verdict import (
    Verdict,
    bing_obstruction,
    doubling_operator_verdict,
    infection_obstruction,
    verdict_for,
)

__version__ = "0.1.0"
