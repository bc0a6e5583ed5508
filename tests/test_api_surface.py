"""The public surface stays in step with the code: every exported name
resolves, and is used by another module or named in README's Library
section, no module imports a name it never reads, every function the
benchmark's tracer wraps by name resolves but those deleted on purpose,
every ctx parameter defaults to DEFAULT_CONTEXT, the README's
library example runs as written, the registry ids agree wherever they are
listed, the math layers stay below the registry, the threshold 10^tol_exp
is formed by the one pass rule alone, which compares pairs exactly,
neither the solve nor the integer kernels switch precision, the integer
kernels share one guard constant and one conversion to fixed point,
mpmath's theta functions and square root stay out of the library,
modular_core takes no mpmath root, the registry takes one only in eq29
and forms its integer relations with no power operator, only the kernel
spells the arithmetic of mantissas, each private lookup keys one
kind on one compute, one function picks each nome's route and one stores
into the request memo, the kernel alone rounds a value or the residual a
gate shows and every gate takes its pass flag from the one verdict,
nothing is assigned into mpmath, only the CLI and the registry import
the decimal writer, only the CLI imports json, for its string escape and never for json.dumps, the
CLI reads no private name of the package, and each typed error is one
class, the kernel's."""

import ast
import glob
import importlib
import inspect
import os
import re
import typing

import pytest

import quintic_moduli
from quintic_moduli import DEFAULT_CONTEXT, PrecisionContext, cli
from quintic_moduli.certify import REGISTRY

import oracle_values as ov

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_MODULES = (
    "quintic_moduli",
    "quintic_moduli.bigmath_kernel",
    "quintic_moduli.modular_core",
    "quintic_moduli.quintic_ladder",
    "quintic_moduli.certify",
    "quintic_moduli.report",
    "quintic_moduli.cli",
)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, "%s.__all__ names undefined %s" % (name, missing)
    assert len(set(mod.__all__)) == len(mod.__all__)


def _ctx_parameters():
    for name in _MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and "ctx" in inspect.signature(fn).parameters:
                yield "%s.%s" % (name, attr), inspect.signature(fn).parameters["ctx"]


def test_every_ctx_parameter_defaults_to_the_default_context():
    params = dict(_ctx_parameters())
    assert "quintic_moduli.run_suite" in params and "quintic_moduli.to_big" in params
    wrong = [n for n, p in params.items() if p.default is not DEFAULT_CONTEXT]
    assert not wrong, "ctx does not default to DEFAULT_CONTEXT in %s" % wrong


def test_precision_context_is_precision_and_tolerance_only():
    # the guard bits are the private constant bigmath_kernel._GUARD_BITS, not a field
    assert list(PrecisionContext._fields) == ["precision_bits", "tol_exp"]


def test_readme_library_example_runs():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md#library", "exec"), ns)
    assert [s.level for s in ns["trace"].steps] == [1, 2, 3]
    assert 0 < ns["R"] < 1


def _readme_registry_ids():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("The registry ids are:\n", 1)[1].split("```")[1]
    return block.split()


def test_registry_ids_agree_across_readme_schema_and_registry():
    entry = cli.JSON_SCHEMA["properties"]["report"]["properties"]["entries"]
    schema_ids = entry["items"]["properties"]["id"]["enum"]
    assert len(REGISTRY) == 16
    assert list(schema_ids) == list(REGISTRY)
    assert _readme_registry_ids() == list(REGISTRY)


def _tree(name):
    mod = importlib.import_module(name)
    with open(mod.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _imported_names(name):
    """Module and package names the module `name` imports."""
    tree = _tree("quintic_moduli." + name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            if node.module is None or node.module == "quintic_moduli":
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return imported


@pytest.mark.parametrize("name", ["bigmath_kernel", "modular_core", "quintic_ladder"])
def test_math_layers_do_not_import_the_registry(name):
    assert not _imported_names(name) & {"report", "certify"}, name


def test_report_is_serialization_only():
    # report only turns mpf values into decimals and back; the registry's
    # types and pass rule live in certify, and the JSON layout in cli
    assert not _imported_names("report") & {"certify", "cli"}


def test_only_the_cli_and_the_registry_import_report():
    # values become decimals in one module, imported by the CLI and by the
    # registry for its detail strings (the package __init__ re-exports
    # report's names and is not scanned)
    submodules = [n.rsplit(".", 1)[-1] for n in _MODULES if n.count(".")]
    importers = [n for n in submodules if "report" in _imported_names(n)]
    assert importers == ["certify", "cli"]


def test_the_cli_imports_no_private_name_from_the_package():
    # a certificate lives in the library, and a command reaches it by its
    # public calls: the CLI imports no underscore name of the package and
    # reads none from the modules it imports
    tree = _tree("quintic_moduli.cli")
    package = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "quintic_moduli")
    ]
    modules = {alias.asname or alias.name for node in package if not node.module
               for alias in node.names}
    private = [alias.name for node in package for alias in node.names
               if alias.name.startswith("_")]
    private += [
        "%s.%s" % (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert modules and not private, "cli reads %s" % private


def test_only_the_cli_imports_json_and_none_calls_dumps():
    # the CLI's one-pass writer is the one JSON writer; json.dumps(indent=2)
    # runs CPython's pure-Python encoder, and is the writer's test oracle
    importers, dumps = set(), []
    for name in _MODULES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                dumps += [(name, node.lineno) for a in node.names if a.name in ("dump", "dumps")]
            else:
                modules = []
                if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                    dumps.append((name, node.lineno))
            if any(m.split(".")[0] == "json" for m in modules):
                importers.add(name)
    assert importers == {"quintic_moduli.cli"}
    assert not dumps, "json.dump(s) named at %s" % dumps


def test_the_threshold_is_formed_only_in_the_verdict():
    # PrecisionContext.verdict is the one pass rule: a power 10 ** tol_exp
    # anywhere else would be a second one
    formed = []
    for module in _MODULES:
        for fn in ast.walk(_tree(module)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            formed += [
                (module, fn.name, node.lineno) for node in ast.walk(fn)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and getattr(node.left, "value", None) == 10
                and any(getattr(n, "attr", getattr(n, "id", None)) == "tol_exp"
                        for n in ast.walk(node.right))
            ]
    assert [(m, f) for m, f, _ in formed] == [("quintic_moduli.bigmath_kernel", "verdict")], formed


def test_the_verdict_is_exact_on_pairs():
    # no cached rounded tolerance, no rounding of an operand, no mpf or int
    # operand: verdict compares the integers of two pairs (man, exp)
    from quintic_moduli import bigmath_kernel

    kept = [n for n in ("tolerance", "_tolerance", "_size") if hasattr(PrecisionContext, n)]
    assert not kept, kept
    importers = sorted(
        (module, a.name) for module in _MODULES for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) for a in node.names
        if a.name in ("mpf_lt", "mpf_pow_int")
    )
    assert not importers, importers
    hints = typing.get_type_hints(PrecisionContext.verdict, vars(bigmath_kernel))
    assert hints["residual"] == hints["scale"] == typing.Tuple[int, int]


def test_no_function_reads_the_ambient_precision():
    # every value, every residual and every number a message prints is
    # formed on mantissas and rounded at stated bits, and a value enters by
    # one conversion, bigmath_kernel._at_bits: no module switches mpmath's
    # working precision, reads it, or builds an mpc at it
    package_dir = os.path.dirname(quintic_moduli.__file__)
    switches, reads = set(), set()
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            where = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                names = {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else set()
                names.add(getattr(node, "id", None) or getattr(node, "attr", None))
                if names & {"workprec", "workdps", "extraprec", "extradps", "mpc"}:
                    switches.add(where)
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("prec", "dps")
                    and getattr(node.value, "id", None) == "mp"
                ):
                    reads.add(where)
    assert switches == set()
    assert reads == set()


def test_one_conversion_to_fixed_point():
    # man 2^exp to an integer with frac fractional bits has one spelling,
    # bigmath_kernel._fixed: no other shift-left-else-shift-right expression
    package_dir = os.path.dirname(quintic_moduli.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            found += [
                (os.path.basename(path), getattr(top, "name", None))
                for node in ast.walk(top)
                if isinstance(node, ast.IfExp)
                and {type(getattr(b, "op", None)) for b in (node.body, node.orelse)}
                == {ast.LShift, ast.RShift}
            ]
    assert found == [("bigmath_kernel.py", "_fixed")]


@pytest.mark.parametrize("name", ["modular_core", "quintic_ladder"])
def test_integer_kernels_take_the_kernels_guard_bits(name):
    # one constant, bigmath_kernel._INT_BITS, holds the bits every integer
    # kernel carries past work_bits; u_map's gate and float seed keep their own
    tree = _tree("quintic_moduli." + name)
    imported = {
        a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "bigmath_kernel"
        for a in node.names
    }
    assert "_INT_BITS" in imported
    bound = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        bound.update(t.id for t in targets if isinstance(t, ast.Name))
    own = {n for n in bound if n.startswith("_") and n.endswith("_BITS")}
    assert own <= {"_GATE_INT_BITS", "_SEED_BITS"}, own


def test_no_module_calls_jtheta():
    # the solver sums its theta quotient itself; mpmath's jtheta is the
    # independent oracle the tests and the benchmark check it against
    package_dir = os.path.dirname(quintic_moduli.__file__)
    named = []
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        named += [
            (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "jtheta")
            or (isinstance(node, ast.Attribute) and node.attr == "jtheta")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "jtheta" for a in node.names))
        ]
    assert not named, "jtheta named at %s" % named


def test_no_module_calls_mp_sqrt_or_patches_mpmath():
    # every square root goes through bigmath_kernel._sqrt_raw, and no module
    # assigns into mpmath, so the tests' mpmath oracles stay mpmath's own
    package_dir = os.path.dirname(quintic_moduli.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        name = os.path.basename(path)
        # names bound to mpmath, its submodules, or anything imported from them
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(
                    (a.asname or a.name).split(".")[0]
                    for a in node.names
                    if a.name.split(".")[0] == "mpmath"
                )
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
                bound.update(a.asname or a.name for a in node.names)
                found += [(name, node.lineno) for a in node.names if a.name == "sqrt"]

        def from_mpmath(node):
            while isinstance(node, ast.Attribute):
                node = node.value
            return isinstance(node, ast.Name) and node.id in bound

        for node in ast.walk(tree):
            # mp.sqrt, or any store into or deletion from an mpmath attribute
            if isinstance(node, ast.Attribute) and from_mpmath(node.value) and (
                node.attr == "sqrt" or isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                found.append((name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and node.args
                and from_mpmath(node.args[0])
            ):
                found.append((name, node.lineno))
    assert not found, "mp.sqrt or a store into mpmath at %s" % found


def test_modular_core_takes_no_mpmath_root():
    # its fifth roots are _root5 on integer mantissas; mp.root is the
    # oracle the tests check them against
    named = [
        node.lineno
        for node in ast.walk(_tree("quintic_moduli.modular_core"))
        if (isinstance(node, ast.Attribute) and node.attr == "root")
        or (isinstance(node, ast.Name) and node.id == "root")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "root" for a in node.names))
    ]
    assert not named, "modular_core names root at lines %s" % named


def test_registry_takes_no_root_and_integer_checkers_no_powers():
    # eq6, eq10 and eq31 are checked in the power they hold in, and the
    # ascent ids eq26, eq29, eq30 and eq34 in the powers k k' holds them in,
    # so certify takes no mpmath root.  They, eq7, the pair relations and
    # eq11 are formed from shared powers on integers, and eq5, eq19, eq24,
    # k-reciprocal and the two routes of a and their gates on mantissas
    functions = _functions("certify")
    roots = sorted(
        (name, node.attr)
        for name, fn in functions.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("root", "cbrt")
    )
    assert roots == []
    tree = _tree("quintic_moduli.certify")
    assert "cbrt" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    integer = [
        functions[n]
        for n in (
            "_check_eq6", "_check_eq7", "_check_eq10", "_check_eq11", "_check_thm22",
            "_pair_relations", "_check_eq26", "_check_thm31", "_check_thm32", "_check_eq31",
            "_check_eq34", "_ascent_law", "_kkprime_at", "_m5_relation", "_check_eq5",
            "_check_eq19", "_check_eq24", "_check_reciprocal",
        )
    ]
    integer += [
        _functions("modular_core")[n]
        for n in ("descend_a", "a_via_eta", "a_via_moduli", "a_value", "rrcf_value")
    ]
    integer.append(_functions("quintic_ladder")["_cubic_residual"])
    powers = [
        (fn.name, node.lineno)
        for fn in integer
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    ]
    assert not powers, "** at %s" % powers


#: bigmath_kernel's arithmetic on (mantissa, exponent) pairs
_MANTISSA_HELPERS = {
    "_Float", "_floats", "_pi", "_mul", "_pow", "_product", "_quo", "_plus", "_root",
}


def _defined(name):
    """Names the module binds at its top level."""
    names = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_only_the_kernel_spells_the_arithmetic_of_mantissas():
    # a cut product, power, quotient or root of mantissas is one of the
    # kernel's helpers: no other module cuts a product by hand, and the
    # registry, which used them first, defines none of them
    assert _MANTISSA_HELPERS <= _defined("quintic_moduli.bigmath_kernel")
    assert not _MANTISSA_HELPERS & _defined("quintic_moduli.certify")
    by_hand = [
        (name, node.lineno)
        for name in _MODULES
        if name != "quintic_moduli.bigmath_kernel"
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_truncated"
        and node.args
        and isinstance(node.args[0], ast.BinOp)
        and isinstance(node.args[0].op, ast.Mult)
    ]
    assert not by_hand, "a product cut by hand at %s" % by_hand


#: the private lookups that share values by their exact rational point
_LOOKUPS = {
    ("bigmath_kernel", "_solved"),
    ("bigmath_kernel", "_nome"),
    ("bigmath_kernel", "_eta_at"),
    ("modular_core", "_rrcf_at"),
    ("modular_core", "_a_eta_at"),
}


def _memoised_calls(fn):
    return [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_memoised"
    ]


def test_only_the_lookups_call_memoised():
    # values are shared by their exact rational point through five private
    # lookups; every public function computes, inside a request scope too
    callers = set()
    for name in _MODULES:
        for fn in _tree(name).body:
            if _memoised_calls(fn):
                callers.add((name.rsplit(".", 1)[-1], getattr(fn, "name", None)))
    assert callers == _LOOKUPS


@pytest.mark.parametrize("module, name", sorted(_LOOKUPS))
def test_one_route_per_lookup(module, name):
    # a lookup takes the point and the context alone and keys one kind on
    # one named compute, so each point has one route and no switch picks
    # another
    mod = importlib.import_module("quintic_moduli." + module)
    assert list(inspect.signature(getattr(mod, name)).parameters) == ["r_num", "r_den", "ctx"]
    (fn,) = [
        node
        for node in _tree("quintic_moduli." + module).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    (call,) = _memoised_calls(fn)
    kind, compute = call.args[:2]
    assert isinstance(kind, ast.Constant) and isinstance(kind.value, str)
    assert isinstance(compute, ast.Name)


def _module_functions(name):
    """(name, node) of each top-level function and method of a module."""
    for node in _tree(name).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield "%s.%s" % (node.name, fn.name), fn


def _memo_stores(fn):
    """Lines where fn stores into the dict of the open request memo: an
    item assignment, or a mutating method, on _MEMO.get() or a name bound
    to it."""
    def is_memo_get(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and getattr(node.func.value, "id", None) == "_MEMO"
        )

    bound = {
        t.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and is_memo_get(node.value)
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def is_memo(node):
        return is_memo_get(node) or isinstance(node, ast.Name) and node.id in bound

    mutators = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}
    return [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        and is_memo(node.value)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in mutators and is_memo(node.func.value)
    ]


def test_one_function_routes_each_nome_and_one_stores_into_the_memo():
    # _chained_nome alone decides whether a nome is a link of a chain or an
    # exp: no other function links nomes, only `nome`, the chains and the
    # eta prefactor take an exp, and every value enters the memo through
    # _memoised, so no second path keeps its own entries or budget
    callers = {"_link": set(), "_exp_nome": set()}
    stores = {}
    for module in _MODULES:
        for name, fn in _module_functions(module):
            for callee in _called_names(fn) & set(callers):
                callers[callee].add(name)
            if _memo_stores(fn):
                stores[name] = _memo_stores(fn)
    assert callers == {
        "_link": {"_chained_nome"},
        "_exp_nome": {"nome", "_chained_nome", "_eta_by_dedekind"},
    }
    assert list(stores) == ["_memoised"], stores


def test_one_function_forms_each_quantity_of_the_modulus_pair():
    # s = k k' is the kernel's _kkprime, which the ladder, g_invariant and
    # the registry's one cut of it call; sqrt(1 - x) of a modulus's square
    # is the kernel's _complement, which the solve, elliptic_K and the
    # ladder's branch below r = 1 call; eq11's relation lives beside eq11
    watched = ("_kkprime", "_complement", "_m5_relation")
    callers = {name: set() for name in watched}
    defined = {name: set() for name in watched}
    for module in _MODULES:
        short = module.rsplit(".", 1)[-1]
        for name, fn in _module_functions(module):
            for callee in _called_names(fn) & set(watched):
                callers[callee].add((short, name))
            if name in defined:
                defined[name].add(short)
    assert defined == {
        "_kkprime": {"bigmath_kernel"},
        "_complement": {"bigmath_kernel"},
        "_m5_relation": {"certify"},
    }
    assert callers == {
        "_kkprime": {("quintic_ladder", "ladder"), ("quintic_ladder", "g_invariant"),
                     ("certify", "_kkprime_at")},
        "_complement": {("bigmath_kernel", "solve_singular_modulus"),
                        ("bigmath_kernel", "elliptic_K"), ("quintic_ladder", "_k_of")},
        "_m5_relation": {("certify", "_check_eq11")},
    }


def _verdict_reachers(module):
    """The functions of a module that reach a .verdict call, directly or
    through the module's own functions."""
    fns = dict(_module_functions(module))
    reach = {
        name for name, fn in fns.items()
        if any(isinstance(node, ast.Attribute) and node.attr == "verdict" for node in ast.walk(fn))
    }
    grown = True
    while grown:
        more = {name for name, fn in fns.items() if _called_names(fn) & reach} - reach
        reach |= more
        grown = bool(more)
    return reach


def test_one_rounding_and_one_verdict_in_the_kernel():
    # a value becomes an mpf at stated bits through _at_bits, and at
    # precision_bits through _rounded; a gate that shows its residual takes
    # the gap and the pass flag from PrecisionContext.verdict; a given
    # ladder seed is rounded once, where the ladder reads it
    from quintic_moduli import bigmath_kernel, quintic_ladder

    gone = [(mod.__name__, name) for mod, name in (
        (bigmath_kernel, "_round_to"), (bigmath_kernel, "_at_work_bits"),
        (quintic_ladder, "_SLACK"),
    ) if hasattr(mod, name)]
    assert not gone, gone
    assert list(inspect.signature(bigmath_kernel._rounded).parameters) == ["ctx", "x"]
    for module in (m for m in _MODULES if m.count(".") and m != bigmath_kernel.__name__):
        at_precision = [
            node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_abs_raw"
            and any(getattr(arg, "attr", None) == "precision_bits" for arg in node.args)
        ]
        assert not at_precision, "%s rounds a residual itself at lines %s" % (module, at_precision)
    assert {"run_suite"} <= _verdict_reachers("quintic_moduli.certify")
    assert {"ladder"} <= _verdict_reachers("quintic_moduli.quintic_ladder")
    assert {"a_value", "rrcf_value"} <= _verdict_reachers("quintic_moduli.modular_core")
    cmd_ladder = dict(_module_functions("quintic_moduli.cli"))["cmd_ladder"]
    assert not {"str_to_big", "seed"} & (_called_names(cmd_ladder) | {
        node.name for node in ast.walk(cmd_ladder) if isinstance(node, ast.FunctionDef)})


def test_every_gate_calls_the_one_pass_rule():
    # PrecisionContext.verdict is the only pass rule: certifies and
    # _abs_raw are gone, _term_sum hands its sum and scale to the verdict as
    # mantissas with no mpf built, no module compares mpf values (mpf_lt),
    # and each gate takes its pass flag from a .verdict call of its own
    from quintic_moduli import bigmath_kernel

    assert not hasattr(PrecisionContext, "certifies")
    assert not hasattr(bigmath_kernel, "_abs_raw")
    term_sum = _functions("bigmath_kernel")["_term_sum"]
    builders = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(term_sum)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    } & {"mpf", "make_mpf", "from_man_exp", "_at_bits", "_rounded"}
    assert not builders, builders
    comparers = {
        module for module in _MODULES for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) and any(a.name == "mpf_lt" for a in node.names)
    }
    assert comparers == set()
    gates = {
        "bigmath_kernel": ["solve_singular_modulus"],
        "quintic_ladder": ["_cubic_root", "ladder"],
        "modular_core": ["rrcf_converged", "_routes_agree"],
        "certify": ["run_suite"],
    }
    for module, names in gates.items():
        functions = _functions(module)
        for name in names:
            assert any(
                isinstance(node, ast.Attribute) and node.attr == "verdict"
                for node in ast.walk(functions[name])
            ), "%s.%s takes no verdict" % (module, name)


def test_the_registry_reads_point_values_only_through_lookups():
    # a direct call would compute the value again outside the request memo;
    # g_invariant is read once per request, by eq31, so it needs no lookup
    behind_lookups = {
        "solve_singular_modulus",
        "nome",
        "eta_f",
        "rrcf_converged",
        "a_via_eta",
    }
    named = [
        (node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for node in ast.walk(_tree("quintic_moduli.certify"))
        if (isinstance(node, ast.Name) and node.id in behind_lookups)
        or (isinstance(node, ast.Attribute) and node.attr in behind_lookups)
    ]
    assert not named, "certify names %s" % named


@pytest.mark.parametrize(
    "module, name, params",
    [
        ("quintic_moduli.modular_core", "rrcf_truncated", ["q", "depth", "ctx"]),
        ("quintic_moduli.modular_core", "rrcf_converged", ["q", "ctx"]),
        ("quintic_moduli.bigmath_kernel", "eta_f", ["q", "ctx"]),
    ],
)
def test_traced_q_series_functions_keep_their_names_and_signatures(module, name, params):
    # public q-series API that the benchmark names by module and function,
    # reading the depth rrcf_converged returns
    mod = importlib.import_module(module)
    package = importlib.import_module("quintic_moduli")
    assert name in mod.__all__ and name in package.__all__
    assert getattr(package, name) is getattr(mod, name)
    assert list(inspect.signature(getattr(mod, name)).parameters) == params


def test_traced_ladder_keeps_its_name_and_signature():
    # the benchmark traces quintic_ladder.ladder by name; the seeds are
    # keyword-only overrides of the products k k' ladder solves itself
    from quintic_moduli import quintic_ladder

    assert quintic_moduli.ladder is quintic_ladder.ladder
    params = inspect.signature(quintic_ladder.ladder).parameters
    assert list(params) == ["r0_num", "r0_den", "n", "ctx", "kkprime_r0", "kkprime_r0_over25"]
    seeds = ("kkprime_r0", "kkprime_r0_over25")
    assert [params[p].kind for p in seeds] == [inspect.Parameter.KEYWORD_ONLY] * 2
    assert params["kkprime_r0"].default is params["kkprime_r0_over25"].default is None


def _functions(module: str) -> dict:
    """The module-level functions of a library module, by name."""
    return {
        node.name: node
        for node in _tree("quintic_moduli." + module).body
        if isinstance(node, ast.FunctionDef)
    }


def _called_names(fn: ast.FunctionDef) -> set:
    return {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_ladder_takes_no_root_and_no_seed_complement():
    # the climb carries k k' and sixth powers: ladder and every helper it
    # reaches in quintic_ladder (its rung, the rung's B and cubic root, the
    # branch to k) take no mp.root, raise nothing to a power with ** and
    # switch no working precision; only the branch takes a complement, of
    # its own k'^2 below r = 1, never of a seed; the messages of a failed
    # rung are off the climb
    fns = _functions("quintic_ladder")
    off_climb = {"_missed", "_branch_error"}
    reached, todo = set(), ["ladder"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += sorted((_called_names(fns[name]) & set(fns)) - reached - off_climb)
    assert {"_rung", "_radicand_b", "_cubic_root", "_newton_int", "_k_of"} <= reached
    for name in sorted(reached):
        for node in ast.walk(fns[name]):
            where = "%s line %d" % (name, getattr(node, "lineno", 0))
            assert not (isinstance(node, ast.Attribute) and node.attr == "root"), where
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)), where
            assert not (isinstance(node, ast.Name) and node.id in (
                "workprec", "g_invariant", "_g_at", "_k_branch")), where
            if name != "_k_of":
                assert not (isinstance(node, ast.Name) and node.id == "_complement"), where
    # the branch's k'^2 is the quotient it forms itself
    branch = {
        t.id: node.value
        for node in ast.walk(fns["_k_of"])
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    (call,) = [
        node for node in ast.walk(fns["_k_of"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_complement"
    ]
    square = call.args[0]
    assert isinstance(square, ast.Name) and getattr(branch[square.id].func, "id", None) == "_quo"


def test_public_maps_share_the_rung_core():
    # one spelling of the cubic's Newton and gate, and of B: p_map is the
    # rung core and a sixth root, u_map the core's cubic root, u_star the
    # core's B; nothing else in the module calls the Newton step or seeds it.
    # P's residual has one spelling, which the gate and eq26 share, and the
    # registry's ascent ids call the core, the cubic root and that residual
    # rather than spelling their own
    fns = _functions("quintic_ladder")
    calls = {name: _called_names(fn) for name, fn in fns.items()}
    assert "_rung" in calls["p_map"] and "_rung" in calls["ladder"]
    assert {"_radicand_b", "_cubic_root", "_descended"} <= calls["_rung"]
    assert "_cubic_root" in calls["u_map"]
    assert "_radicand_b" in calls["u_star"]
    for helper in ("_newton_int", "_float_seed", "_doubling_precisions"):
        assert [name for name, c in calls.items() if helper in c] == ["_cubic_root"], helper
    for helper in ("_rung", "_cubic_root", "_radicand_b", "_cubic_residual"):
        users = sorted(name for name, c in calls.items() if helper in c)
        assert users == {"_rung": ["ladder", "p_map"], "_cubic_root": ["_rung", "u_map"],
                         "_radicand_b": ["_rung", "u_star"],
                         "_cubic_residual": ["_cubic_root"]}[helper], (
            helper, users)
    registry = {name: _called_names(fn) for name, fn in _functions("certify").items()}
    for helper, users in (
        ("_rung", ["_ascent_law"]),
        ("_cubic_root", ["_check_eq26", "_check_thm31"]),
        ("_cubic_residual", ["_check_eq26"]),
    ):
        assert sorted(name for name, c in registry.items() if helper in c) == users, helper
        assert helper not in registry, helper


@pytest.mark.parametrize("name", [n for n in _MODULES if n.count(".") and not n.endswith(".cli")])
def test_package_exports_every_module_name(name):
    # the package __all__ is the union of its library modules' __all__
    mod = importlib.import_module(name)
    assert set(mod.__all__) <= set(quintic_moduli.__all__)
    moved = [n for n in mod.__all__ if getattr(quintic_moduli, n) is not getattr(mod, n)]
    assert not moved, "%s names differ on the package: %s" % (name, moved)


def test_typed_errors_are_one_class_each():
    # every typed error lives in the kernel, so the CLI catches each one
    # without loading the module that raises it; the modules that raise
    # BranchError and UsageError re-export the same class
    from quintic_moduli import bigmath_kernel, certify, quintic_ladder

    assert quintic_ladder.BranchError is bigmath_kernel.BranchError is quintic_moduli.BranchError
    assert certify.UsageError is bigmath_kernel.UsageError is quintic_moduli.UsageError
    assert "BranchError" in quintic_ladder.__all__ and "UsageError" in certify.__all__


def _traced_pairs():
    """perfbench/tracer.py's TRACED, read from its source without importing it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


@pytest.mark.parametrize("module, name", _traced_pairs())
def test_every_traced_name_resolves(module, name):
    # the benchmark wraps each (module, function) by name and skips a pair
    # that no longer resolves, so a rename would zero its per-layer metrics;
    # a pair deleted on purpose must stay unresolved until the list drops it
    mod = importlib.import_module("quintic_moduli." + module)
    if (module, name) in ov.TRACED_DELETED:
        assert not hasattr(mod, name), "%s.%s" % (module, name)
    else:
        assert inspect.isfunction(getattr(mod, name, None)), "%s.%s" % (module, name)


def test_every_deleted_traced_name_is_still_traced():
    # the exemption above lapses, and this fails, once the tracer drops it
    assert set(ov.TRACED_DELETED) <= set(_traced_pairs())


def _readme_library_names():
    """The identifiers README's Library section documents: every word of
    its example, and each backticked span that is a name or a call of one."""
    with open(_README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", section, re.S)
    names = set(re.findall(r"\w+", example.group(1)))
    prose = section[:example.start()] + section[example.end():]
    return names | set(re.findall(r"`(\w+)[(`]", prose))


def _names_read_by(name):
    """Names the module `name` imports from anywhere or reads as an attribute."""
    names = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", [n for n in _MODULES if n.count(".") and not n.endswith(".cli")])
def test_every_exported_name_is_used_or_documented(name):
    # a public name earns its place: another module of the package, the
    # CLI included, imports or reads it, or README's Library section names
    # it; a name only the tests call belongs in the tests
    readers = [n for n in _MODULES if n.count(".") and n != name]
    used = set().union(*map(_names_read_by, readers)) | _readme_library_names()
    unused = [n for n in importlib.import_module(name).__all__ if n not in used]
    assert not unused, "%s exports %s, which nothing uses or documents" % (name, unused)


@pytest.mark.parametrize("name", _MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    # an import that nothing reads is a leftover; a name re-exported
    # through __all__ and the package's * imports are its use
    tree = _tree(name)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set(importlib.import_module(name).__all__)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    unread = [n for n in imported if n not in read and n not in exported]
    assert not unread, "%s imports %s and never reads them" % (name, unread)
