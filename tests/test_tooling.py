import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that only tests call, each kept as an independent reference
ORACLES = {
    "validate_nonlinearity": "checks each built-in F against its declared bound and Jacobian",
    "linear_semigroup_apply": "exact propagator the ETD stepper must reproduce for F = 0",
    "semigroup_kernel_bound": "closed-form kappa(t) behind the operational constant M",
    "evolve_ode": "RK4 reference the PDE constant subspace and invariance probes compare to",
    "solve_resolvent": "per-mode resolvent the sampled and exact gaps are checked against",
    "spectral_projection_Q": "Riesz projection, eigen and contour modes, of criterion 5",
    "projection_gap": "operator norm of Q - P that criterion 5 asserts to be zero",
    "random_field": "random test-input generator for fields",
    "energy_norm": "energy norm that EnergyNorm.embed and the defect quotients are checked against",
}


def test_hypothesis_can_report_a_failing_example():
    # to print a falsifying example, hypothesis imports this module and libcst;
    # if that import raises under the suite's warning filters, pytest aborts
    # with INTERNALERROR instead of reporting the failure
    import hypothesis.extra._patching  # noqa: F401


def _public_names(tree: ast.Module) -> tuple[list[str], set[int]]:
    """The names in a module's __all__ and the lines its list spans."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines = set(range(node.lineno, node.end_lineno + 1))
            return [elt.value for elt in node.value.elts], lines
    return [], set()


def _definition_lines(tree: ast.Module) -> dict[str, int]:
    lines = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            lines[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lines[target.id] = node.lineno
    return lines


def test_every_public_name_has_a_caller_or_is_an_oracle():
    # a name counts as used when a line of src/ or perfbench/ other than its
    # definition and its __all__ entry mentions it; ORACLES must list exactly
    # the names left without such a line
    sources = sorted((ROOT / "src" / "bigdiff").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    text = {path: path.read_text().splitlines() for path in sources}
    without_caller = set()
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        tree = ast.parse(module.read_text())
        names, all_lines = _public_names(tree)
        defined = _definition_lines(tree)
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            skip = {(module, i) for i in all_lines} | {(module, defined.get(name))}
            used = any(word.search(line) and (path, i) not in skip
                       for path, lines in text.items()
                       for i, line in enumerate(lines, start=1))
            if not used:
                without_caller.add(name)
    assert without_caller == set(ORACLES)
    assert all(reason for reason in ORACLES.values())


# (module, imported name) pairs that the module itself does not use
UNUSED_IMPORTS = {
    ("attractors", "evolve_pde"): "perfbench/spans.py traces calls through attractors.evolve_pde",
}


def test_every_imported_name_is_used_in_its_module():
    unused = set()
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        tree = ast.parse(module.read_text())
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # `from __future__ import annotations` binds no name to use
        unused |= {(module.stem, name) for name in imported - used - {"annotations"}}
    assert unused == set(UNUSED_IMPORTS)
    assert all(reason for reason in UNUSED_IMPORTS.values())


# (module, function) pairs that step a flow in a loop of their own
OWN_TIME_LOOPS = {
    ("attractors", "graph_iteration"): "its trapezoid sum reuses each state's forcing as the "
                                       "next RK4 k1; through propagate every step would need "
                                       "a fifth forcing evaluation",
}


def test_every_flow_steps_in_propagate():
    # a call of _rk4_step or of a .step( method sits in dynamics.propagate, in
    # a stepper's own step method, or in a function of OWN_TIME_LOOPS
    def is_step(call):
        return (isinstance(call.func, ast.Name) and call.func.id == "_rk4_step"
                or isinstance(call.func, ast.Attribute) and call.func.attr == "step")

    def calls_outside(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + ((type(child), child.name),)
            if isinstance(child, ast.Call) and is_step(child):
                own_step = scope[-2:] and scope[-1] == (ast.FunctionDef, "step") and (
                    scope[-2][0] is ast.ClassDef)
                outer = scope[0][1] if scope else None
                if not own_step and (module, outer) not in {("dynamics", "propagate"),
                                                            *OWN_TIME_LOOPS}:
                    yield module, outer, child.lineno
            yield from calls_outside(child, module, inner)

    outside = []
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        outside += calls_outside(ast.parse(module.read_text()), module.stem, ())
    assert outside == []
    assert all(reason for reason in OWN_TIME_LOOPS.values())
