"""Every public function and class of the library is reached from the library.

A public module-level function or class that no code in src/intertwine
names outside its own definition, and that intertwine.__all__ does not
export, runs only under the tests: it restates a check a suite already makes,
or a formula another function owns, or it is dead.  Give it a caller or a
verify case, or delete it.  Docstrings and comments do not count as callers.
KEPT holds the exceptions, each with its reason.
"""

import ast
from pathlib import Path

import intertwine

SRC = Path(intertwine.__file__).resolve().parent

# a verify case for any of these would change the case counts that the
# benchmark pins (SUITE_CASES)
KEPT = {
    "schwartz.k_act": "the rotation action behind the exact K-equivariance tests of the transforms",
    "harmonics.su2_from_integers": "float view of the rational sphere points of the K-equivariance tests",
    "padic.root_of_unity_sum": "public entry of the exact kernel on a numerator array, which its reference "
    "tests call; the library builds numerators piece by piece through _root_sums",
    "arch.tate_section_complex": "the section value f_Phi(s; kappa) at one point, which the tests take as the "
    "reference for mu_arch_oracle; the oracle sums the same per-degree weights from its cached _plan",
    "arch.tate_section_real": "the real-place section value, the reference for mu_arch_oracle at that place",
}


def _names_in_code(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def unreached_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(mod, line, name) for mod, tree in trees.items() for line, name in _names_in_code(tree)]
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if node.name in intertwine.__all__:
                continue
            if not any(name == node.name and not (m == mod and line in own) for m, line, name in uses):
                found.append(f"{mod}.{node.name}")
    return found


def test_every_public_name_is_reached_from_the_library():
    unreached = set(unreached_public_names())
    only_tests = sorted(unreached - set(KEPT))
    assert not only_tests, f"public names no library code reaches: {only_tests}"
    # an exception that gained a caller leaves the list
    stale = sorted(set(KEPT) - unreached)
    assert not stale, f"reached from the library, drop from KEPT: {stale}"
