"""Checks on the package source itself."""

import ast
from pathlib import Path

import numpy as np

from torusorbits.numfield import MAX_PRECISION

SRC = Path(__file__).resolve().parent.parent / "src" / "torusorbits"


def test_no_assert_statements_in_the_package():
    """Invariants are explicit checks that raise InvariantViolation; an
    assert statement vanishes under python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_function_local_imports_only_break_cycles():
    """Imports sit at module level; a function may import only from a
    package module that would otherwise form an import cycle."""
    allowed = {"decomp"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.level == 1
                      and node.module in allowed)]
    assert found == []


def test_no_global_precision_assignment():
    """Transcendental work runs in local precision contexts
    (mpmath.workprec and its interval counterpart); no function sets
    mpmath's global working precision."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
             if isinstance(target, ast.Attribute)
             and target.attr in ("prec", "dps")]
    assert found == []


# Every function that reads the Fraction view FieldElement.coeffs, with the
# number of reads.  Element arithmetic runs on the integer numerators; a new
# reader of the view belongs on this list only when Fractions serve it.
COEFFS_READERS = {
    "forms.py:_spectrum_constant": 1,
    "forms.py:cm_obstruction_check": 1,
    "numfield.py:FieldElement.as_str": 1,
    "numfield.py:NumberField.mult_matrix": 1,
    "numfield.py:NumberField._evaluate": 1,
}


def _coeffs_reads(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _coeffs_reads(node, f"{prefix}{node.name}.")
        else:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr == "coeffs"
                        and isinstance(sub.ctx, ast.Load)):
                    yield prefix.rstrip(".")


def test_readers_of_the_fraction_view_are_pinned():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for func in _coeffs_reads(ast.parse(path.read_text())):
            key = f"{path.name}:{func}"
            found[key] = found.get(key, 0) + 1
    assert found == COEFFS_READERS


# The systole's float evaluation: every value comes from the elementwise
# image kernel, so a point's value does not depend on its batch or on the
# BLAS build, and value(-x) == value(x).  The head floors and their error
# bound reason about that kernel's roundings term by term.  The ladder's
# enumeration sums each centre term by term, as the per-rung search did: a
# matrix product would reorder those sums and move range edges.
SCAN_FUNCTIONS = ("systole", "_image", "_sup_product", "_value_array",
                  "_direct_scan", "_scan_heads", "_head_floors",
                  "_error_bound", "_ellipsoid_scan", "_rungs", "_ladder",
                  "_fincke_pohst", "_fp_level", "_ldl")


def test_scan_functions_form_no_matrix_product():
    tree = ast.parse((SRC / "dynamics.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert set(SCAN_FUNCTIONS) <= set(funcs)
    found = [f"{name}:{node.lineno}"
             for name in SCAN_FUNCTIONS
             for node in ast.walk(funcs[name])
             if (isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult))
             or (isinstance(node, ast.Attribute)
                 and node.attr in ("dot", "matmul", "einsum", "inner",
                                   "tensordot", "vdot"))]
    assert found == []


def test_fincke_pohst_squares_with_float_power():
    """The bound left at each level is rem - d (x - c)^2, squared by
    np.float_power: the C library's pow, which Python's ** calls in the
    recursion the search reproduces.  numpy's ** on a float array squares
    by multiplication or a SIMD pow, which can differ in the last bit and
    move a range edge."""
    tree = ast.parse((SRC / "dynamics.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_fp_level")
    assert [node.lineno for node in ast.walk(func)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)] == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "float_power"
               for node in ast.walk(func))


def test_one_json_writer():
    """JSON text comes from config.json_text alone: no other json.dump or
    json.dumps call, and no import of either name, in the package."""
    found, writer_calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        writer = {id(node) for func in tree.body
                  if isinstance(func, ast.FunctionDef)
                  and path.name == "config.py" and func.name == "json_text"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names} & {"dump", "dumps"}):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                if id(node) in writer:
                    writer_calls += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert writer_calls


# The Gaussian elimination family that the table of minors and the integer
# kernel replaced; it lives on only as the tests' oracle (gauss_oracle).
RETIRED_ELIMINATION = ("echelon", "reduce_above", "determinant", "invert",
                       "solve")


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _functions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _functions(node, f"{prefix}{node.name}.")


def _package_functions():
    """Every function and method of the package, keyed "file:qualname"."""
    return {f"{path.name}:{name}": func
            for path in sorted(SRC.glob("*.py"))
            for name, func in _functions(ast.parse(path.read_text()))}


def _calls(func):
    return {_called_name(node) for node in ast.walk(func)
            if isinstance(node, ast.Call)}


def test_one_row_elimination():
    """bareiss, with int_determinant and int_solve on top, is the package's
    one row elimination: no function of the retired family is defined and
    nothing else calls bareiss.  Over a number field the determinant, the
    inverse and the rank test read a MinorTable, and the forms' rank tests
    go through that test."""
    funcs = _package_functions()
    assert [key for key in funcs
            if key.split(":")[1].split(".")[-1] in RETIRED_ELIMINATION] == []

    def calls(key):
        return _calls(funcs[key])

    assert {key for key in funcs if "bareiss" in calls(key)} == {
        "polyutil.py:int_determinant", "polyutil.py:int_solve"}
    for key in ("decomp.py:MatrixK.det", "decomp.py:MatrixK.inverse",
                "decomp.py:rows_independent"):
        assert "MinorTable" in calls(key), key
    for key in ("forms.py:make_form", "forms.py:reduce_variables"):
        assert "rows_independent" in calls(key), key


def _self_recursive(key, func):
    """Whether func calls itself: by its bare name, or as self.name."""
    name = key.split(".")[-1].split(":")[-1]
    for node in ast.walk(func):
        f = node.func if isinstance(node, ast.Call) else None
        if (isinstance(f, ast.Name) and f.id == name
                or isinstance(f, ast.Attribute) and f.attr == name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def _reaches(funcs, start, target):
    """Whether the package function start calls target, directly or
    through other package functions (calls matched by bare name)."""
    by_name = {}
    for key in funcs:
        by_name.setdefault(key.split(".")[-1].split(":")[-1], []).append(key)
    seen, todo = set(), [start]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += [k for name in _calls(funcs[key])
                     for k in by_name.get(name, [])]
    return target in seen


def test_one_cofactor_expansion():
    """polyutil.laplace_minor is the one expansion of a determinant into
    minors: besides it, only the JSON writer's nesting and a Fincke-Pohst
    level call themselves.  The table of minors, the full-matrix
    determinant of the norm form and the unit-independence minor, and the
    characteristic polynomial reach it, the last without a loop of its own
    (the Faddeev-LeVerrier iteration it replaced is a test oracle)."""
    funcs = _package_functions()
    assert {key for key, func in funcs.items()
            if _self_recursive(key, func)} == {
        "polyutil.py:laplace_minor", "config.py:json_text.text",
        "dynamics.py:_fp_level"}
    target = "polyutil.py:laplace_minor"
    for key in ("decomp.py:MinorTable.minor", "polyutil.py:cofactor_det",
                "numfield.py:_charpoly"):
        assert _reaches(funcs, key, target), key
    assert "cofactor_det" in _calls(funcs["numfield.py:_charpoly"])
    assert not any(isinstance(node, (ast.For, ast.While))
                   for node in ast.walk(funcs["numfield.py:_charpoly"]))


def test_coset_representatives_come_from_the_one_line_notation():
    """No function of the package composes Weyl elements or builds the
    Levi's Weyl group: coset_representatives keeps the permutations that
    increase on every block, and the coset-by-coset scan it replaced is a
    test oracle (conftest.brute_force_cosets)."""
    funcs = _package_functions()
    retired = {"compose", "weyl_stabilizer"}
    assert not {key.split(".")[-1].split(":")[-1] for key in funcs} & retired
    assert [key for key, func in funcs.items() if _calls(func) & retired] == []


def _cap_checks(func):
    """The lines of the if statements in func that raise CapExceeded when
    their size test holds."""
    return [node.lineno for node in ast.walk(func)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and any(isinstance(stmt, ast.Raise)
                    and isinstance(stmt.exc, ast.Call)
                    and _called_name(stmt.exc) == "CapExceeded"
                    for stmt in node.body)]


def test_every_box_is_capped_before_it_is_built():
    """A function that builds a height box with _box first refuses an
    oversized one: a size test raising CapExceeded, in the function itself
    or in a function it calls, comes before the _box call."""
    funcs = _package_functions()
    checks = {key.split(":")[1].split(".")[-1] for key, func in funcs.items()
              if _cap_checks(func)}
    builders = {}
    for key, func in funcs.items():
        lines = [node.lineno for node in ast.walk(func)
                 if isinstance(node, ast.Call) and _called_name(node) == "_box"]
        if lines:
            guards = _cap_checks(func) + [
                node.lineno for node in ast.walk(func)
                if isinstance(node, ast.Call) and _called_name(node) in checks]
            builders[key] = min(guards, default=None), min(lines)
    assert set(builders) == {"forms.py:scan_values", "forms.py:_window_keys",
                             "forms.py:norm_product_spectrum"}
    assert [key for key, (guard, build) in builders.items()
            if guard is None or guard >= build] == []


# The per-pair path of the stratification: the block LDU of one Weyl pair
# on interned ids, the representative and merge of enumerate_strata, and
# each record's product with g2.
PER_PAIR = ("decomp.py:MinorTable.ldu", "decomp.py:MinorTable.ldu_ids",
            "decomp.py:MinorTable.mul", "decomp.py:MinorTable.add",
            "decomp.py:MinorTable.neg", "decomp.py:MinorTable.translate",
            "decomp.py:MinorTable.matmul", "strata.py:enumerate_strata",
            "strata.py:pair_representative", "strata.py:materialised")


def test_the_per_pair_path_calls_no_dot():
    """Products and sums of a pair go through the table's memos on ids, so
    no function of the per-pair path calls NumberField.dot (the table's
    minors do, once each), and MinorTable.ldu is read off ldu_ids."""
    funcs = _package_functions()
    assert [key for key in PER_PAIR if "dot" in _calls(funcs[key])] == []
    assert "ldu_ids" in _calls(funcs["decomp.py:MinorTable.ldu"])
    assert "pair_representative" in _calls(funcs["strata.py:enumerate_strata"])


def test_no_bare_unique():
    """np.unique hashes integer arrays on numpy 2.x; distinct values come
    from polyutil.distinct (a sort and a neighbour test), and np.unique is
    called only for the indices or counts it returns."""
    wanted = {"return_index", "return_inverse", "return_counts"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _called_name(node) == "unique"
             and not wanted & {kw.arg for kw in node.keywords}]
    assert found == []


def _doubles_a_name(node):
    """x *= 2, x <<= 1, x = x * 2, x = 2 * x or x = x << 1."""
    if isinstance(node, ast.AugAssign):
        op, operands = node.op, [node.value]
    elif (isinstance(node, ast.Assign) and len(node.targets) == 1
          and isinstance(node.targets[0], ast.Name)
          and isinstance(node.value, ast.BinOp)):
        op, operands = node.value.op, [node.value.left, node.value.right]
        if not any(isinstance(o, ast.Name) and o.id == node.targets[0].id
                   for o in operands):
            return False
    else:
        return False
    want = {ast.Mult: 2, ast.LShift: 1}.get(type(op))
    return any(isinstance(o, ast.Constant) and o.value == want
               for o in operands)


def test_one_precision_ladder():
    """Every certified value of numfield refines on one ladder: exactly one
    function doubles a precision, and it alone reads the 2^16-bit cap."""
    assert MAX_PRECISION == 1 << 16
    funcs = {key: func for key, func in _package_functions().items()
             if key.startswith("numfield.py:")}
    doubling = {key for key, func in funcs.items()
                if any(_doubles_a_name(node) for node in ast.walk(func))}
    capped = {key for key, func in funcs.items()
              for node in ast.walk(func)
              if (isinstance(node, ast.Name) and node.id == "MAX_PRECISION")
              or (isinstance(node, ast.Constant) and node.value == 1 << 16)}
    assert doubling == capped == {"numfield.py:NumberField._ladder"}


def test_one_complex_root_isolation():
    """Complex roots are isolated in polyutil.root_regions alone (the one
    caller of a numerical root finder), and the field's places are its one
    caller: the modulus-one test decides from a separation bound."""
    funcs = _package_functions()
    assert {key for key, func in funcs.items()
            if "polyroots" in _calls(func)} == {"polyutil.py:root_regions"}
    assert {key for key, func in funcs.items()
            if "root_regions" in _calls(func)} == {
        "numfield.py:NumberField.places"}


def test_roots_are_refined_only_by_the_root_regions():
    """Real roots are refined in polyutil.root_regions alone, behind the
    field's places: is_cm reads no root's region."""
    funcs = _package_functions()
    assert {key for key, func in funcs.items()
            if "refine_root" in _calls(func)} == {"polyutil.py:root_regions"}
    assert not {"refine_root", "peval"} & _calls(funcs["numfield.py:is_cm"])


# Irreducibility is decided from the places' root regions
# (numfield._certify_irreducible); the modular accept and the Kronecker
# interpolation search it replaced are gone.
RETIRED_IRREDUCIBILITY = ("check_irreducible", "mod_p", "divisors",
                          "interpolate", "kronecker")


def test_no_modular_or_interpolation_irreducibility_search():
    funcs = _package_functions()
    assert [key for key in funcs
            if any(word in key.split(":")[1].lower()
                   for word in RETIRED_IRREDUCIBILITY)] == []
    names = {target.id for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    assert "_SMALL_PRIMES" not in names
    assert "_certify_irreducible" in _calls(funcs["numfield.py:create_field"])


# Where a public function, method or exported class may find its caller:
# the CLI, the acceptance suite, the benchmark and every package module but
# __init__.py.
ROOT = SRC.parent.parent
CALLER_FILES = ([path for path in sorted(SRC.glob("*.py"))
                 if path.name != "__init__.py"]
                + [ROOT / "tests" / "test_acceptance.py"]
                + sorted((ROOT / "perfbench").glob("*.py")))

# Public functions, methods and exported classes that no caller reaches,
# each kept for a stated reason.
UNCALLED = {
    # the exact representative of the paper's limit orbit, read from the
    # same table as strata; demo 04 and three tests
    "dynamics.predicted_limit",
    # the unipotent radical's positions; demo 02 and test_decomp's oracle
    "rootdata.unipotent_positions",
    # a place's float midpoint, for printing; demo 01 and test_numfield
    "numfield.ArchimedeanPlace.approx",
    # whether a record carries the full subset's pair; demo 03 and the
    # strata tests' top record
    "strata.StratumRecord.is_top",
    # v^- z v^+ multiplied out; demo 02 and test_decomp's round trip
    "decomp.BlockLDU.recompose",
}


def _public_names():
    """Every public module-level function and method of the package, keyed
    "module.name" or "module.Class.name", and every class __init__.py
    exports, keyed "module.Class"."""
    exported = {alias.name for node in ast.parse(
                    (SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                out.update((f"{path.stem}.{top.name}.{node.name}", node)
                           for node in top.body
                           if isinstance(node, ast.FunctionDef))
                if top.name in exported:
                    out[f"{path.stem}.{top.name}"] = top
            elif isinstance(top, ast.FunctionDef):
                out[f"{path.stem}.{top.name}"] = top
    return {key: node for key, node in out.items()
            if not any(part.startswith("_") for part in key.split(".")[1:])}


def _references(path):
    """What a file reads, each with the functions and classes it sits in:
    any attribute as ".name" (a method call), and as "module.name" a name
    of a package module's own scope, a name imported from a package module, or an
    attribute of a package module.  A string counts only as an import path
    "torusorbits.module.name": the benchmark's span and metric names, such
    as strata.genericity_check_s, label measurements and call nothing."""
    tree = ast.parse(path.read_text())
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("torusorbits")):
            source = (node.module or "").removeprefix("torusorbits").strip(".")
            for alias in node.names:
                name = alias.asname or alias.name
                if not source and (SRC / f"{alias.name}.py").exists():
                    modules[name] = alias.name
                else:
                    imported[name] = f"{source}.{alias.name}"
    own = path.stem if path.parent == SRC else None

    def walk(node, owners):
        for child in ast.iter_child_nodes(node):
            ref = None
            if isinstance(child, ast.Name):
                ref = imported.get(child.id, own and f"{own}.{child.id}")
            elif isinstance(child, ast.Attribute):
                yield f".{child.attr}", owners
                if (isinstance(child.value, ast.Name)
                        and child.value.id in modules):
                    ref = f"{modules[child.value.id]}.{child.attr}"
            elif (isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and child.value.startswith("torusorbits.")):
                ref = child.value.removeprefix("torusorbits.")
            if ref:
                yield ref, owners
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            yield from walk(child, owners + (child,) if inner else owners)

    return walk(tree, ())


def test_every_export_has_a_caller():
    """Every public function and method of the package, and every class it
    exports, is read by a program file outside its own body: a method as an
    attribute, a module-level function or class through its module.  The
    exceptions are listed with their reasons."""
    seen = {}
    for path in CALLER_FILES:
        for ref, owners in _references(path):
            seen.setdefault(ref, []).append(owners)
    uncalled = set()
    for key, node in _public_names().items():
        ref = f".{key.split('.')[-1]}" if key.count(".") == 2 else key
        if all(node in owners for owners in seen.get(ref, [])):
            uncalled.add(key)
    assert uncalled == UNCALLED


# Public method and property names of the package that another object a
# program file reads may carry as well: a method or property of another
# package class, a dataclass field, or an attribute of numpy or its arrays.
# test_every_export_has_a_caller matches a method to its callers by bare
# name, so it cannot tell these owners apart; every owner listed here has a
# program caller of its own, checked by hand.  A new shared name fails
# below until its callers are checked the same way.
SHARED_METHOD_NAMES = {
    "add": {"decomp.MinorTable"},
    "dot": {"numfield.NumberField"},
    "empty": {"rootdata.RootSubset"},
    "field": {"strata.OrbitInput"},
    "full": {"rootdata.RootSubset"},
    "identity": {"decomp.MatrixK"},
    "inverse": {"decomp.MatrixK", "intervals.RInt", "numfield.FieldElement"},
    "mask": {"rootdata.ParabolicDescriptor", "rootdata.RootSubset",
             "strata.ParabolicPair"},
    "matmul": {"decomp.MinorTable"},
    "matrix": {"decomp.MinorTable", "rootdata.WeylElement"},
    "mid": {"intervals.CBox", "intervals.RInt"},
    "n": {"rootdata.WeylElement", "strata.OrbitInput", "strata.StrataSet"},
    "overlaps": {"intervals.CBox", "intervals.RInt"},
    "r": {"dynamics.TorusPath", "forms.DecomposableForm", "strata.OrbitInput"},
    "square": {"intervals.RInt"},
    "steps": {"dynamics.TorusPath"},
    "value": {"forms.DecomposableForm"},
    "width": {"intervals.CBox", "intervals.RInt"},
}


def test_shared_method_names_are_pinned():
    owners, fields = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, ast.ClassDef):
                continue
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    owners.setdefault(node.name, set()).add(
                        f"{path.stem}.{top.name}")
                elif (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    fields.add(node.target.id)
    shared = {name: classes for name, classes in owners.items()
              if len(classes) > 1 or name in fields
              or hasattr(np, name) or hasattr(np.ndarray, name)}
    assert shared == SHARED_METHOD_NAMES


def test_no_private_name_crosses_a_module():
    """A package module imports no underscore name from another; the two
    left are forms' reads of numfield's cached CM split and numfield's of
    the intervals' exact Fraction conversion."""
    found = {f"{path.name}:{alias.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert found == {"forms.py:_cm_split_solver", "numfield.py:_frac"}
