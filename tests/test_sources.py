"""Checks on the source text of the package itself."""

import ast
import re
from pathlib import Path

import pytest

from test_records import RECORDS

SRC = Path(__file__).parents[1] / "src" / "autoind"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


# Every function of src/autoind that enumerates with itertools' product,
# combinations or permutations, or recurses as a generator, and what keeps its
# output small: a bound checked before it starts (every upper-case name must be
# one the module binds), or the draws of the seeded suites that call it.
# hecke._perms is listed by hand: a next-permutation walk, not a recursion.
ENUMERATORS = {
    "hecke._perms": "MAX_ORBIT in _orbit; DEGREE_BUDGET on the keys _m_product multiplies",
    "reps.compositions": "2^(k-1) for the k of its callers, at most 5 (verify's crit8)",
    "reps.fiber_unitary": "MAX_PARTS on prod C(g + n - 1, n) x factors, n factors per Galois orbit",
    "satake._sub_multisets": "MAX_FIBER_SIZE: ai_fiber takes at most that many splits plus one",
    "satake._multiset_splits": "MAX_FIBER_SIZE: ai_fiber takes at most that many splits plus one",
    "satake.bc_fiber": "MAX_FIBER_SIZE on prod C(k + s - 1, k)",
    "verify.crit1_delta_well_defined.check": "s^(rm) root choices: at most 729 for d <= 6, m <= 3",
    "verify._brute_ai_fiber": "crit5's draws: d <= 4, rank dm <= 4",
    "verify._brute_bc_fiber": "crit5's draws: s <= 4, rank <= 3",
}
ITERTOOLS = {"product", "combinations", "combinations_with_replacement", "permutations"}


def _scoped(path):
    """Every node of the module at path, with the qualified name of the
    function or class it is in (its own, for a definition); a node outside
    any is in ``<module>``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        yield ".".join([path.stem] + (scope or ["<module>"])), node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text()), [])


def _enumerators(path):
    """Qualified names of the functions that call an itertools enumerator or
    recurse as generators."""
    names, modules = set(), set()  # local names of the enumerators and of itertools
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names |= {a.asname or a.name for a in node.names if a.name in ITERTOOLS}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "itertools"}
    found = set()
    for qualname, node in _scoped(path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = [n for stmt in node.body for n in _own_nodes(stmt)]
            recursive = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                            and n.func.id == node.name for n in own)
            if recursive and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own):
                found.add(qualname)
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in names) or (
                isinstance(f, ast.Attribute) and f.attr in ITERTOOLS
                and isinstance(f.value, ast.Name) and f.value.id in modules
            ):
                found.add(qualname)
    return found


def _own_nodes(node):
    """The nodes of a statement, without descending into nested functions or classes."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield from _own_nodes(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_enumeration_is_registered_with_its_bound(path):
    unregistered = _enumerators(path) - set(ENUMERATORS)
    assert not unregistered, f"{path.name}: {sorted(unregistered)} enumerate with no registered bound"


def test_the_registry_holds_the_enumerators_and_names_bound_constants():
    found = set().union(*(_enumerators(p) for p in SRC.glob("*.py")))
    hecke = ast.parse((SRC / "hecke.py").read_text())
    assert any(isinstance(n, ast.FunctionDef) and n.name == "_perms" for n in hecke.body)
    assert found | {"hecke._perms"} == set(ENUMERATORS)
    for qualname, bound in ENUMERATORS.items():
        tree = ast.parse((SRC / f"{qualname.split('.')[0]}.py").read_text())
        names = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
        names |= {a.asname or a.name for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        assert set(re.findall(r"\b[A-Z][A-Z_]{2,}\b", bound)) <= names, qualname


# Every function of src/autoind that calls ``.root(``, and why: the spread of
# a coordinate over its k-th roots is built by ``Coordinate.roots`` alone.
ROOT_CALLERS = {
    "reps.pair_atom": "a payload's canonical d-th root, not a spread",
    "verify.crit1_delta_well_defined.check": "the reference for delta_map, which must not share its code",
    "verify._brute_bc_fiber": "the reference for bc_fiber, which must not share its code",
}


def test_every_root_caller_is_registered_with_its_reason():
    found = {qualname for p in SRC.glob("*.py") for qualname, node in _scoped(p)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "root"}
    known = set(ROOT_CALLERS)
    assert found == known, f"unregistered {sorted(found - known)}, gone {sorted(known - found)}"


def test_every_record_class_is_in_the_record_suite():
    # a class of src/autoind that derives from Record, directly or through
    # another such class, gets the copy, pickle and immutability checks
    classes = [node for p in SRC.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ClassDef)]
    records = {"Record"}
    while True:
        more = {c.name for c in classes
                if any(isinstance(b, ast.Name) and b.id in records for b in c.bases)} - records
        if not more:
            break
        records |= more
    records.discard("Record")
    assert {"Coordinate", "Speh", "SymLaurent"} <= records
    assert records <= set(RECORDS), f"not in test_records.RECORDS: {sorted(records - set(RECORDS))}"
