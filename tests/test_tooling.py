import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

from bigdiff.config import default_config, load_config

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
    "evolve_pde": "sampled ETD2RK trajectory the ETD tests drive and compare to; no study calls it",
}


def test_hypothesis_can_report_a_failing_example():
    # to print a falsifying example, hypothesis imports this module and libcst;
    # if that import raises under the suite's warning filters, pytest aborts
    # with INTERNALERROR instead of reporting the failure
    import hypothesis.extra._patching  # noqa: F401


def _public_names(tree: ast.Module) -> list[str]:
    """The names in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_public_name_has_a_caller_or_is_an_oracle():
    # a name counts as used where code in src/ or perfbench/ reads it, as a
    # name or an attribute; its definition, an import, an __all__ entry, a
    # string, a comment or a docstring do not count. ORACLES must list
    # exactly the names left unused
    sources = sorted((ROOT / "src" / "bigdiff").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    public, used = set(), set()
    for path in sources:
        tree = ast.parse(path.read_text())
        if path.parent.name == "bigdiff":
            public.update(_public_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert public - used == set(ORACLES)
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


def test_every_flow_steps_in_propagate():
    # a call of _rk4_step or of a .step( method sits in dynamics.propagate or
    # in a stepper's own step method
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
                if not own_step and (module, outer) != ("dynamics", "propagate"):
                    yield module, outer, child.lineno
            yield from calls_outside(child, module, inner)

    outside = []
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        outside += calls_outside(ast.parse(module.read_text()), module.stem, ())
    assert outside == []


def test_point_errors_are_caught_in_one_funnel():
    # the errors that fail one sweep point are spelt out as one tuple, and
    # only dynamics.try_point catches them: every except clause that names
    # that tuple, or spells it out, is listed by (module, function, line)
    def spells_out(node):
        return isinstance(node, ast.Tuple) and sorted(
            getattr(elt, "id", "") for elt in node.elts) == ["RuntimeError", "ValueError"]

    def names_point_errors(node):
        return spells_out(node) or (
            isinstance(node, ast.Name) and node.id.endswith("POINT_ERRORS")
            or isinstance(node, ast.Attribute) and node.attr.endswith("POINT_ERRORS"))

    definitions, catches = [], []
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        tree = ast.parse(module.read_text())
        definitions += [(module.stem, node.lineno) for node in ast.walk(tree) if spells_out(node)]
        for outer in tree.body:
            catches += [(module.stem, getattr(outer, "name", None), node.lineno)
                        for node in ast.walk(outer) if isinstance(node, ast.ExceptHandler)
                        and node.type is not None and names_point_errors(node.type)]
    assert [(module, name) for module, name, _ in catches] == [("dynamics", "try_point")], catches
    assert len(definitions) == 1, definitions


def test_every_run_opens_in_one_place():
    # cli.main is the one dispatch: it alone loads the config and opens a
    # study's run in cli._run, and manifold opens its second run inside it;
    # only rates.open_run writes record.json: once at open, once at close
    def called(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    sites, raises, studies = [], set(), {}
    for module in sorted((ROOT / "src" / "bigdiff").glob("*.py")):
        tree = ast.parse(module.read_text())
        sites += [(module.stem, getattr(outer, "name", None), called(node.func))
                  for outer in tree.body for node in ast.walk(outer)
                  if isinstance(node, ast.Call)
                  and called(node.func) in {"open_run", "persist_run", "_load", "_run"}]
        raises |= {(module.stem, getattr(outer, "name", None))
                   for outer in tree.body for node in ast.walk(outer)
                   if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and called(node.exc.func) == "ConfigError"}
        studies.update({node.name: [arg.arg for arg in node.args.args] for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")})
    assert sorted(sites) == [("cli", "_run", "open_run"), ("cli", "cmd_manifold", "_run"),
                             ("cli", "main", "_load"), ("cli", "main", "_run"),
                             ("rates", "open_run", "persist_run"),
                             ("rates", "open_run", "persist_run")], sites
    # every config error is found while loading, before any run opens
    assert raises == {("config", "load_config"), ("config", "_coerce"),
                      ("config", "_validate")}, raises
    assert studies.pop("cmd_report") == ["args"]
    assert len(studies) == 7 and all(
        params == ["args", "cfg", "record"] for params in studies.values()), studies


def test_each_linearization_is_decomposed_in_one_place():
    # every eigendecomposition in attractors sits in _spectrum, which each
    # equilibrium finder calls once per equilibrium; the arc builders read
    # the directions the equilibria carry
    tree = ast.parse((ROOT / "src" / "bigdiff" / "attractors.py").read_text())
    sites = [(getattr(outer, "name", None), node.func.attr, node.lineno)
             for outer in tree.body for node in ast.walk(outer)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in {"eig", "eigvals", "eigh", "eigvalsh"}]
    assert [(name, call) for name, call, _ in sites] == [("_spectrum", "eig")], sites


def test_cli_graph_map_and_geometry_load_no_scipy():
    # every study pays for its imports at start-up, and scipy's spatial and
    # interpolate packages cost most of it; nothing in src/ needs scipy
    script = textwrap.dedent("""
        import sys
        import bigdiff.cli
        from bigdiff import attractors, dynamics, spectral
        basis = spectral.build_basis(spectral.DomainSpec(), 8)
        E, F = spectral.diffusion([16.0]), dynamics.tanh_pitchfork(2.0)
        attractors.graph_iteration(E, F, basis, iters=1, grid_points=5)
        cloud = attractors.attractor_ode(F, grid_density=5, sample_dt=0.5)
        (pde,) = attractors.attractor_pde([E], F, basis, cloud, n_tails=2, t_trans=1.0, seed=1)
        cloud.resolution()
        attractors.hausdorff_distance(cloud, pde, E, basis)
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, f"scipy modules were imported: {loaded}"
    """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_config_block_is_the_default_config(tmp_path):
    # the README's config block documents every key at its default, and no other key
    (block,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_config(path).data == default_config().data


def test_readme_oracle_list_is_oracles():
    # the README names every public name that no study calls, and no other
    text = " ".join((ROOT / "README.md").read_text().split())
    (sentence,) = re.findall(r"that no study calls are such oracles: (.*?);", text)
    assert set(re.findall(r"`(\w+)`", sentence)) == set(ORACLES)
