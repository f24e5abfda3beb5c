import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import msolab


def test_all_names_resolve():
    assert [name for name in msolab.__all__ if not hasattr(msolab, name)] == []


def test_package_surface_is_loaded_on_first_use():
    """`import msolab` loads no numpy; every public name is listed by dir()
    and bound by a star import to its owning submodule's object."""
    out = subprocess.run([sys.executable, "-c",
                          "import msolab, sys; print('numpy' in sys.modules)"],
                         check=True, capture_output=True, text=True).stdout
    assert out == "False\n"
    assert set(msolab.__all__) <= set(dir(msolab))
    namespace = {}
    exec("from msolab import *", namespace)
    assert set(namespace) >= set(msolab.__all__)
    assert [name for name, owner in msolab._OWNERS.items()
            if namespace[name] is not getattr(
                importlib.import_module(f"msolab.{owner}"), name)] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        msolab.no_such_name


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names that the module never reads."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    """The library modules and the tests."""
    modules = sorted(Path(msolab.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    unused = {f"{p.parent.name}/{p.name}": _unused_imports(p) for p in modules + tests}
    assert len(modules) > 5 and len(tests) > 5
    assert {name: names for name, names in unused.items() if names} == {}


def _defaulted_parameters(path: Path) -> int:
    """Parameters with a default value, over every function of a module."""
    tree = ast.parse(path.read_text())
    return sum(len(n.args.defaults) + sum(d is not None for d in n.args.kw_defaults)
               for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_option_count():
    """Every defaulted parameter is an option a caller may set; an added one
    fails here until this count is raised on purpose."""
    modules = sorted(Path(msolab.__file__).parent.glob("*.py"))
    assert sum(_defaulted_parameters(p) for p in modules) == 38


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module reads, binds, imports or passes, and every
    string constant (slot names included)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.arg, ast.keyword)) and n.arg:
            out.add(n.arg)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_one_truncation_rule():
    """Only msolab.inner decides where an expansion is cut off, at the cap
    and at the floor (every other module goes through `expand`), and no
    module keeps tail bookkeeping: the tail of an expansion is
    B.tail_bound_at(n)."""
    package = Path(msolab.__file__).parent
    rule = {"DEFAULT_TAIL_CAP", "TAIL_FLOOR", "cap_degree", "floor_degree",
            "_expand_cached"}
    deciding, tails = {}, {}
    for path in sorted(package.glob("*.py")):
        names = _names(ast.parse(path.read_text()))
        if path.name != "inner.py":
            deciding[path.name] = sorted(names & rule)
        tails[path.name] = sorted(names & {"tail_bound", "tail_cap"})
    assert len(deciding) > 5
    assert {k: v for k, v in deciding.items() if v} == {}
    assert {k: v for k, v in tails.items() if v} == {}


def test_both_operator_kinds_share_one_interface():
    """A TTO and a DTTO both carry theta and alpha and hand out their bases
    through domain_basis/codomain_basis, so no library module reads a
    `.domain` or `.codomain` attribute to tell them apart."""
    package = Path(msolab.__file__).parent
    readers = [f"{path.name}:{n.lineno}" for path in sorted(package.glob("*.py"))
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.Attribute) and n.attr in ("domain", "codomain")]
    assert readers == []
    tree = ast.parse((package / "operators.py").read_text())
    members = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name in ("DenseComplexMatrix",
                                                           "BlockOperator"):
            slots = [n.value for a in cls.body if isinstance(a, ast.Assign)
                     and a.targets[0].id == "__slots__"
                     for n in ast.walk(a.value) if isinstance(n, ast.Constant)]
            methods = [f.name for f in cls.body if isinstance(f, ast.FunctionDef)]
            members[cls.name] = set(slots + methods)
    interface = {"theta", "alpha", "domain_basis", "codomain_basis", "apply",
                 "to_json", "from_json"}
    assert {name: sorted(interface - have) for name, have in members.items()} == \
        {"DenseComplexMatrix": [], "BlockOperator": []}


def _readers(name: str) -> list[str]:
    """The library modules whose names (see _names) include `name`."""
    package = Path(msolab.__file__).parent
    return [path.name for path in sorted(package.glob("*.py"))
            if name in _names(ast.parse(path.read_text()))]


def test_only_the_section_modules_read_section_expansion():
    """spaces builds the sections and operators their blocks; every other
    module reads section data from the blocks or the bases, so only these
    two decide how far a section expansion reaches."""
    assert _readers("section_expansion") == ["operators.py", "spaces.py"]


def test_only_the_block_modules_read_block_views():
    """operators copies the blocks from block_views and characterize's
    coupling check predicts That as one; the shift-invariance suite judges
    the block structure against the shift's index map, never against the
    degrees the blocks were built from."""
    assert _readers("block_views") == ["characterize.py", "operators.py"]


def test_no_module_gathers_blocks_at_an_index_array():
    """The blocks are strided views of their sequences; the gather at an
    (M+1)^2 array of degrees is the tests' oracle only."""
    assert {name: _readers(name) for name in ("block_degrees", "coefficient_matrix")} \
        == {"block_degrees": [], "coefficient_matrix": []}


def test_only_operators_and_criterion_7_read_assemble():
    """Every block-operator quantity reads the four blocks; only criterion
    7's spectral norm takes the assembled (2M+2)^2 matrix."""
    assert _readers("assemble") == ["operators.py", "suites.py"]


def test_only_the_certified_norms_svd_assembles_with_np_block():
    """Every check reads a residual block by block, in bands or from the
    sequences; np.block appears once, in the SVD fallback of
    characterize._certified_norm, which needs E whole."""
    package = Path(msolab.__file__).parent
    uses = [(path.name, n.lineno) for path in sorted(package.glob("*.py"))
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and n.attr == "block"
            and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")]
    tree = ast.parse((package / "characterize.py").read_text())
    norm = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "_certified_norm")
    assert len(uses) == 1
    assert uses[0][0] == "characterize.py"
    assert norm.lineno <= uses[0][1] <= norm.end_lineno


def test_only_spaces_and_criterion_4_read_section_shift_index():
    """spaces defines where the shift moves the section vectors and
    criterion 4 builds its system from that map; the shift check reads the
    block residuals, so the index map is still tested independently."""
    assert _readers("section_shift_index") == ["spaces.py", "suites.py"]


def test_payload_numbers_pass_through_the_readers():
    """The four payload classes are the ones with a `from_json`; none
    converts a payload value itself (numbers reach payload objects only
    through msolab.payload's readers), and the CLI uses no private name of
    another msolab module."""
    package = Path(msolab.__file__).parent
    readers, converting = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers |= {cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and fn.name == "from_json"}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "from_json":
                converting += [f"{path.name}:{call.lineno}" for call in ast.walk(fn)
                               if isinstance(call, ast.Call)
                               and isinstance(call.func, ast.Name)
                               and call.func.id in ("float", "bool", "int", "complex")]
    assert readers == {"LaurentPolynomial", "BlaschkeProduct",
                       "DenseComplexMatrix", "BlockOperator"}
    assert converting == []
    private = [alias.name for node in ast.walk(ast.parse((package / "cli.py").read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("msolab"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _method_callers(package: Path, method: str) -> list[str]:
    """Modules with a call of the form `<expr>.method(...)`."""
    return [path.name for path in sorted(package.glob("*.py"))
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == method
                   for n in ast.walk(ast.parse(path.read_text())))]


def test_only_bases_stacks_basis_vectors():
    """A dense stack of basis vectors is the bases' own business: every
    other module maps through coordinates or section slices."""
    assert _method_callers(Path(msolab.__file__).parent, "stacked") == ["bases.py"]


def test_characterize_reads_model_spaces_through_the_compressed_shift():
    """The model-space shift check and solve take their coordinates from
    spaces.compressed_shift: no admissible vector is rebuilt and no
    coordinate is mapped one vector at a time."""
    path = Path(msolab.__file__).parent / "characterize.py"
    assert "admissible_for_shift" not in _names(ast.parse(path.read_text()))
    assert "characterize.py" not in _method_callers(path.parent, "coords")


def test_characterize_reads_blocks_only_through_the_accessor():
    """A built operator copies a block the first time it is read by name
    (10.3 MB for the four at M = 400), so characterize reads blocks only
    through BlockOperator.blocks, which copies nothing."""
    path = Path(msolab.__file__).parent / "characterize.py"
    named = [f"{n.attr}:{n.lineno}" for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Attribute)
             and n.attr in ("that", "gamma_check", "gamma_hat", "t_check", "_blocks")]
    assert named == []
    assert "characterize.py" in _method_callers(path.parent, "blocks")
