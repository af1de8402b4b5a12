"""Built-in knot records.

Matrices: the trefoil/figure-eight/9_46 surfaces are the standard genus-1
ones; the 8_9 matrix is a genus-3 plumbing chain (twist vector
(1,1,1,-1,-1,-1)) whose Alexander polynomial is
(t^3-2t^2+t-1)(t^3-t^2+2t-1), determinant 25.

Flags:
  ribbon            knot bounds a ribbon disk (slice), so it is solvable at
                    every filtration level and slice-kernel vanishing applies
  amphichiral       isotopic to its mirror image (negative or full); kills
                    the zero-submodule first-order signature
  ribbon_kernels_all
                    every nonzero isotropic submodule of the Alexander
                    module arises as the kernel of a ribbon-disk map (true
                    for the 9_46 band pattern: cutting either band gives a
                    ribbon disk)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from concord.seifert import SeifertMatrix

BUILTIN: Dict[str, dict] = {
    "unknot": {
        "seifert": [],
        "flags": {"ribbon": True},
    },
    "trefoil": {
        "seifert": [[-1, 1], [0, -1]],
        "flags": {},
    },
    "figure8": {
        "seifert": [[1, 1], [0, -1]],
        "flags": {"amphichiral": True},
    },
    "nine46": {
        "seifert": [[0, 2], [1, 0]],
        "flags": {"ribbon": True, "ribbon_kernels_all": True},
    },
    "eight9": {
        "seifert": [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, 0, -1, 1],
            [0, 0, 0, 0, 0, -1],
        ],
        "flags": {"ribbon": True, "amphichiral": True},
    },
}


def get(name: str) -> Tuple[Optional[SeifertMatrix], dict]:
    """Return (SeifertMatrix or None, flags) for a built-in knot."""
    if name not in BUILTIN:
        raise KeyError(f"unknown built-in knot {name!r}")
    rec = BUILTIN[name]
    mat = rec["seifert"]
    v = SeifertMatrix(mat, name=name) if mat or name == "unknot" else None
    if name == "unknot":
        v = SeifertMatrix([], name="unknot")
    return v, dict(rec["flags"])
