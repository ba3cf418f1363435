"""The benchmark's three workloads, built from a seed.

A workload is a list of set-up invocations (one `validate` per algebra) and a
round: a fixed list of CLI invocations that the harness runs, in a seeded
order, until the run's time is up.  Generated definition files are written
into the work directory and named by a fixed relative path, because the CLI
echoes its `algebra` argument into the report.

Every argument vector uses `--point=` / `--element=`: argparse reads a bare
`-p -1,2` as two options.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import families as fam
from oracle import kks_rank

DEFAULT_SEED = 0


@dataclass
class Invocation:
    id: str
    args: list
    expect: str = "report"       # "report": exit 0/1; "error": exit 2; "envelope": any JSON exit
    points: int = 0              # covectors or elements passed
    family: str | None = None    # stem of the generated definition file it reads
    known_failure: str | None = None


@dataclass
class Workload:
    setup: list
    round: list
    files: dict = field(default_factory=dict)      # relative path -> document
    families: dict = field(default_factory=dict)   # stem -> families.Family


# ---------------------------------------------------------------------------
# catalog_sweep

# Declared contents of the built-in catalog: covectors, ideals, complements,
# and whether the entry carries a matrix representation (for `parabolic`).
CATALOG = {
    "abelian3": ({"generic": "1,2,3"}, [], [], False),
    "heisenberg3": ({"center_dual": "0,0,1", "x_dual": "1,0,0"},
                    ["center", "plane"], ["xy_plane"], True),
    "filiform4": ({"top_dual": "0,0,0,1", "mixed": "0,0,1,1"},
                  ["center", "derived", "big_abelian"], [], False),
    "affine_line": ({"b_dual": "0,1"}, ["translations"], ["dilation"], True),
    "euclid2": ({"momentum": "0,1,0", "rotation_dual": "1,0,0"},
                ["translations"], ["rotation"], True),
    "sl2": ({"hyperbolic_dual": "2,0,0", "nilpotent_dual": "0,0,1"}, [], [], True),
    "sl3": ({}, [], [], True),
    "so31": ({"boost_dual": "1,0,0,0,0,0"}, [], [], True),
    "poincare": ({"timelike": "0,0,0,0,0,0,1,0,0,0",
                  "timelike_spinning": "0,0,0,1,0,0,1,0,0,0",
                  "lightlike": "0,0,0,0,0,0,1,1,0,0",
                  "spacelike": "0,0,0,0,0,0,0,1,0,0",
                  "zero_momentum": "0,0,0,1,0,0,0,0,0,0"},
                 ["translations"], ["lorentz"], True),
}
CATALOG_DIMS = {"abelian3": 3, "heisenberg3": 3, "filiform4": 4, "affine_line": 2,
                "euclid2": 3, "sl2": 3, "sl3": 8, "so31": 6, "poincare": 10}

_SEMIDIRECT = "semidirect_witness raises ValueError (traceback, exit 1) when the " \
              "point-orbit hypothesis fails; ROADMAP item 4"
# entries whose declared (ideal, complement) pair hits that traceback
_SEMIDIRECT_CRASHES = {"affine_line", "euclid2"}

# Reproducers of ROADMAP item 4.  Each must give exit 2 with an error
# envelope; at this commit it does not, and it counts as failed.
_MALFORMED = {
    "bad_structure.json": {"name": "bad", "dim": 1, "basis": ["a"], "structure": [[1]]},
    "no_coeffs.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                       "brackets": [{"i": 0, "j": 1}]},
    "top_list.json": [{"name": "bad", "dim": 1, "basis": ["a"]}],
    "bad_ideal.json": {"name": "bad_ideal", "dim": 2, "basis": ["a", "b"],
                       "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}],
                       "ideals": {"x": [9]}},
    "bad_covector.json": {"name": "bad_covector", "dim": 2, "basis": ["a", "b"],
                          "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}],
                          "covectors": {"c": ["1", "2", "3"]}},
    "jacobi_fail.json": {"name": "jacobi_fail", "dim": 3, "basis": ["a", "b", "c"],
                         "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1"}},
                                      {"i": 0, "j": 2, "coeffs": {"1": "1"}}]},
}

_INVALID = [
    # (id, args, known failure or None)
    ("mackey_semidirect_timelike",
     ["mackey", "catalog:poincare", "--ideal", "translations", "--complement", "lorentz",
      "--point=0,0,0,0,0,0,1,0,0,0"], _SEMIDIRECT),
    ("parabolic_bad_rational", ["parabolic", "catalog:sl2", "--element=1,a,0"],
     "unparsed rational in --element raises ValueError (traceback); ROADMAP item 4"),
    ("validate_structure_1x1", ["validate", "bad_structure.json"],
     "a 1x1 'structure' tensor raises TypeError (traceback); ROADMAP item 4"),
    ("validate_bracket_no_coeffs", ["validate", "no_coeffs.json"],
     "a bracket without 'coeffs' raises KeyError (traceback); ROADMAP item 4"),
    ("validate_top_level_list", ["validate", "top_list.json"],
     "a top-level JSON list raises AttributeError (traceback); ROADMAP item 4"),
    ("mackey_ideal_index_out_of_range",
     ["mackey", "bad_ideal.json", "--ideal", "x", "--point=0,1"],
     "ideal index 9 at dim 2 silently becomes the zero subspace (exit 0); ROADMAP item 4"),
    ("orbit_covector_wrong_length", ["orbit", "bad_covector.json", "--point=0,1"],
     "a declared covector of the wrong length is accepted (exit 0); ROADMAP item 4"),
    # error paths that already give the exit-2 envelope
    ("orbit_unknown_entry", ["orbit", "catalog:nosuch", "--point=1"], None),
    ("orbit_point_wrong_length", ["orbit", "catalog:heisenberg3", "--point=1,2"], None),
    ("orbit_point_bad_rational", ["orbit", "catalog:heisenberg3", "--point=1,x,0"], None),
    ("validate_missing_file", ["validate", "missing.json"], None),
    ("validate_jacobi_failure", ["validate", "jacobi_fail.json"], None),
    ("mackey_unknown_ideal", ["mackey", "catalog:heisenberg3", "--ideal", "nosuch",
                              "--point=0,0,1"], None),
]


def _catalog_sweep(seed: int, full: bool = False) -> Workload:
    """Every subcommand over every catalog entry, plus the invalid inputs.

    The valid invocations (each subcommand on each entry, with all declared
    covectors, once per declared ideal or complement it can take) are sorted
    by point count and dealt alternately into two halves, so both report
    about as many points.  A run's round is the half the seed picks plus the
    semidirect and invalid-input cases.  A whole sweep costs about 40 s of
    fixed start-up cost at this commit, more than a run can spend.  `full`
    keeps both halves, for recording golden outputs.
    """
    rng = random.Random(f"{seed}:catalog_sweep")
    setup = [Invocation(f"validate:{name}", ["validate", f"catalog:{name}"], "envelope")
             for name in CATALOG]
    valid, always = [Invocation("catalog", ["catalog"], "envelope")], []
    for name, (covs, ideals, comps, has_rep) in CATALOG.items():
        alg = f"catalog:{name}"
        declared = [f"--point={c}" for c in covs.values()]
        seeded = "--point=" + ",".join(str(rng.randint(-3, 3)) for _ in range(CATALOG_DIMS[name]))
        pts = declared or [seeded]

        def add(sub, args, points, tag="", known=None, to=valid):
            to.append(Invocation(f"{sub}:{name}{tag}", [sub, alg] + args + points, "envelope",
                                 len(points), known_failure=known))

        add("orbit", [], declared + [seeded])
        add("polarize", [], pts)
        if has_rep:
            add("parabolic", [], pts)
        for sub in ideals + comps:
            add("conditions", ["--sub", sub], pts, f":{sub}")
            add("record", ["--sub", sub], pts, f":{sub}")
        for ideal in ideals:
            add("mackey", ["--ideal", ideal], pts, f":{ideal}")
            add("classify", ["--ideal", ideal], pts, f":{ideal}")
        if comps and name != "poincare":   # poincare's is the item-4 reproducer below
            add("mackey", ["--ideal", ideals[0], "--complement", comps[0]], pts,
                f":{ideals[0]}:{comps[0]}",
                _SEMIDIRECT if name in _SEMIDIRECT_CRASHES else None, always)
    for ident, args, known in _INVALID:
        always.append(Invocation(f"invalid:{ident}", args, "error", known_failure=known))
    valid.sort(key=lambda inv: (-inv.points, inv.id))
    rnd = valid if full else valid[seed % 2::2]
    return Workload(setup, rnd + always, files=dict(_MALFORMED))


# ---------------------------------------------------------------------------
# generated families


def _point(rng, dim) -> list:
    return [rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(dim)]


def _generic_point(rng, family) -> list:
    """A nonzero-entry covector whose orbit has the generic dimension."""
    target = None if family.index is None else family.dim - family.index
    for _ in range(100):
        p = _point(rng, family.dim)
        if target is None or kks_rank(family.doc, p) == target:
            return p
    raise RuntimeError(f"no generic covector found for {family.name}")


def _points(rng, family, count) -> list:
    pts = [_generic_point(rng, family)] + [_point(rng, family.dim) for _ in range(count - 1)]
    return ["--point=" + ",".join(map(str, p)) for p in pts]


def _register(wl: Workload, family) -> str:
    path = f"{family.name}.json"
    wl.families[family.name] = family
    wl.files[path] = family.doc
    wl.setup.append(Invocation(f"validate:{family.name}", ["validate", path],
                               family=family.name))
    return path


_FAMILIES = [(fam.heisenberg, 4, "h9"), (fam.nilradical, 5, "n5"), (fam.filiform, 9, "L9"),
             (fam.borel, 4, "b4"), (fam.poincare, 4, "poincare4")]


def _family_orbit(seed: int) -> Workload:
    wl = Workload([], [])
    rng = random.Random(f"{seed}:family_orbit")
    for make, size, stem in _FAMILIES:
        family = make(size, fam.family_rng(seed, stem))
        ideal = family.ideal
        path = _register(wl, family)

        def add(sub, args, count):
            pts = _points(rng, family, count)
            wl.round.append(Invocation(f"{sub}:{family.name}", [sub, path] + args + pts,
                                       points=count, family=family.name))

        add("orbit", [], 2)
        add("conditions", ["--sub", ideal], 2)
        add("mackey", ["--ideal", ideal], 1)
        add("classify", ["--ideal", ideal], 1)
        add("record", ["--sub", ideal], 1)
    big = fam.poincare(5, fam.family_rng(seed, "poincare5"))
    path = _register(wl, big)
    wl.round.append(Invocation(f"orbit:{big.name}", ["orbit", path] + _points(rng, big, 1),
                               points=1, family=big.name))
    return wl


# Diagonals (eigenvalue patterns) of the upper-triangular parabolic inputs,
# times a height c.  Cost grows with the product of eigenvalue differences,
# through the divisor search in `rational_roots`: sl3 at c = 300 takes ~10 s
# at this commit, so the heights stop at 100.
_PARABOLIC = [
    # (n, pattern, c, height of the strictly upper entries)
    (3, (1, 0, -1), 1, 1000),
    (3, (1, 0, -1), 100, 10),
    (3, (2, -1, -1), 30, 1000),
    (3, (1, 0, -1), 100, 1000),
    (3, (0, 0, 0), 1, 1000),
    (3, (2, -1, -1), 1, 10),
    (3, (1, 0, -1), 30, 100),
    (3, (1, 0, -1), 10, 1000),
    (3, (2, -1, -1), 10, 10),
    (3, (1, 0, -1), 3, 100),
    (3, (0, 0, 0), 1, 100),
    (3, (2, -1, -1), 3, 1000),
    (3, (1, 0, -1), 1, 10),
    (3, (2, -1, -1), 30, 10),
    (4, (3, 1, -1, -3), 1, 1000),
    (4, (1, 1, -1, -1), 10, 10),
    (4, (1, 0, 0, -1), 1, 100),
]

_POLARIZE = [(fam.heisenberg, 2, "h5"), (fam.heisenberg, 3, "h7"), (fam.filiform, 6, "L6"),
             (fam.filiform, 7, "L7"), (fam.filiform, 8, "L8"), (fam.nilradical, 4, "n4"),
             (fam.borel, 3, "b3"), (fam.borel, 4, "b4")]


def _upper_triangular(rng, n, pattern, c, height) -> list:
    diag = [c * x for x in pattern]
    rng.shuffle(diag)
    return [[diag[i] if i == j else (rng.randint(-height, height) if j > i else 0)
             for j in range(n)] for i in range(n)]


def _parabolic_polarize(seed: int) -> Workload:
    wl = Workload([], [])
    rng = random.Random(f"{seed}:parabolic_polarize")
    sls = {n: fam.sl(n, fam.family_rng(seed, f"sl{n}")) for n in (3, 4)}
    paths = {n: _register(wl, f) for n, f in sls.items()}
    for k, (n, pattern, c, height) in enumerate(_PARABOLIC):
        coords = fam.element_coords(sls[n], _upper_triangular(rng, n, pattern, c, height))
        wl.round.append(Invocation(
            f"parabolic:sl{n}:{k}",
            ["parabolic", paths[n], "--element=" + ",".join(map(str, coords))],
            points=1, family=sls[n].name))
    for make, size, stem in _POLARIZE:
        family = make(size, fam.family_rng(seed, stem))
        path = _register(wl, family)
        wl.round.append(Invocation(f"polarize:{stem}", ["polarize", path] + _points(rng, family, 1),
                                   points=1, family=family.name))
    return wl


BUILDERS = {
    "catalog_sweep": _catalog_sweep,
    "family_orbit": _family_orbit,
    "parabolic_polarize": _parabolic_polarize,
}


def build(name: str, seed: int, full: bool = False) -> Workload:
    """The workload for `seed`; `full` lists the whole catalog sweep, not one part."""
    return _catalog_sweep(seed, full) if name == "catalog_sweep" else BUILDERS[name](seed)


def write_files(wl: Workload, workdir) -> None:
    for rel, doc in wl.files.items():
        with open(workdir / rel, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
