"""Every library definition is reached from an entry point, or is a paper
claim that waits for its ``verify`` suite.

A name-based ``ast`` pass: a top-level function or class of
``src/fusion_sos`` is reached when its bare name occurs (as a name or an
attribute) in an entry point or in a definition already reached.  The entry
points are every definition in ``cli.py``, every name in ``perfbench/*.py``,
every ``module.function`` that a ``per_layer`` metric of ``BENCHMARK.json``
names, and each module's top-level statements other than imports.  Equal
names in different modules are not told apart, so the pass can only miss an
unreached definition, never invent one.

Code that only tests read belongs in the tests; a definition that no entry
point reaches is either moved there or listed below with its reason.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusion_sos"

# Paper claims that no ``verify`` suite checks yet; each gains its caller
# when its suite lands, and then must leave this list.  The number is the
# acceptance criterion of tests/test_acceptance.py that checks it.
UNSUITED_CLAIMS = {
    # 02: the seven-vertex operator degenerates where the paper says.
    "vertex.check_degeneracy",
    # 04: the (n, 1) operator as a 2x2 matrix of difference operators.
    "polyrep.r_n1_matrix",
    "polyrep.assemble_2x2",
    "polyrep.monomial_to_coeff_matrix",
    # 08: the path function, by enumeration and in closed form.
    "sos.path_function_bruteforce",
    "sos.path_function_closed",
    # 11: the fused intertwining vector as a symmetrized tensor product.
    "correspondence.fused_intertwiner_tensor",
    # 12: the correspondence for the eleven-vertex family.
    "correspondence.check_shifted_correspondence",
    # 13: the float gauge model, with the m = 1 closed forms it is built on.
    "sos.w11",
    "sos.w_n1",
    "sos.gauge_weights",
    "sos.gauge_w11_float",
    "sos.w0_model_float",
    "sos.sos_ybe_residual_gauge",
    # 14: the height-model partition sum by transfer matrices.
    "lattice.transfer_matrix_sos",
    "lattice.partition_sos_transfer",
}


def _definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _names(nodes) -> set[str]:
    """Every bare name and attribute name that occurs in ``nodes``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def library() -> dict[str, dict[str, ast.AST]]:
    """module name -> {definition name: node} for every module of the package."""
    return {path.stem: {node.name: node for node in _definitions(ast.parse(path.read_text()))}
            for path in sorted(PACKAGE.glob("*.py"))}


def entry_names() -> set[str]:
    """The names the entry points read, unqualified."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            names |= {node.name for node in _definitions(tree)}
        top = [node for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                        ast.AsyncFunctionDef, ast.ClassDef))]
        names |= _names(top)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _names([ast.parse(path.read_text())])
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        module, name = metric["name"].split(".")[:2]
        if (PACKAGE / f"{module}.py").exists():
            names.add(name)
    return names


def unreached(defs: dict[str, dict[str, ast.AST]], roots: set[str]) -> set[str]:
    """The ``module.name`` of every definition in ``defs`` that ``roots``
    does not reach."""
    nodes = {}
    for module, named in defs.items():
        for name, node in named.items():
            nodes.setdefault(name, []).append(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(_names(nodes.get(name, ())) - reached)
    return {f"{module}.{name}" for module, named in defs.items() for name in named
            if name not in reached}


def _bare(qualified: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in qualified}


def test_every_definition_is_reached_or_a_listed_claim():
    assert unreached(library(), entry_names() | _bare(UNSUITED_CLAIMS)) == set()


def test_every_listed_claim_is_still_unreached():
    # A claim that gains a caller leaves the list.
    assert UNSUITED_CLAIMS <= unreached(library(), entry_names())


def test_a_planted_definition_is_caught():
    # A test-only reference that lands in the library, calling library code.
    defs, roots = library(), entry_names() | _bare(UNSUITED_CLAIMS)
    planted = ast.parse("def _planted_reference(x):\n    return fuse_nm(x)\n").body[0]
    before = unreached(defs, roots)
    defs["fusion"] = {**defs["fusion"], planted.name: planted}
    assert unreached(defs, roots) - before == {"fusion._planted_reference"}
