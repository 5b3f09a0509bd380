"""Source-wide style rules, checked over the package, the tests and the demos."""

import ast
import collections
import pathlib

from dpsk.params import CHANNELS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PATTERNS = ("src/dpsk/*.py", "tests/*.py", "demos/*.py")
MAX_COLUMNS = 99


def _sources():
    sources = sorted(path for pattern in PATTERNS for path in ROOT.glob(pattern))
    assert {path.parent.name for path in sources} == {"dpsk", "tests", "demos"}
    return sources


def test_lines_fit_in_99_columns():
    long = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _sources()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []


def _unused_imports(tree):
    """Imported names that no expression reads and ``__all__`` does not list."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _sources()
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _scheme_name_comparisons(tree):
    """Lines that compare a value with a scheme name, as ``== "mac"`` or
    ``in ("dpc", "noisy")`` would; names such as ``"mac-fb"`` are not one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                items = getattr(operand, "elts", [operand])  # a tuple, list or set's items
                if any(isinstance(i, ast.Constant) and i.value in CHANNELS for i in items):
                    lines.append(node.lineno)
    return lines


def test_the_package_never_compares_with_a_scheme_name():
    # every per-scheme rule comes from the channel containers' declared split
    # fractions, so no branch picks a scheme out by name
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(ROOT.glob("src/dpsk/*.py"))
        for line in _scheme_name_comparisons(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _private_reads(tree):
    """Lines that read another object's private attribute, as ``plan._kept``
    would; ``self._x``, ``cls._x``, dunders, namedtuple ``_replace`` and
    ``os._exit``, public names with a leading underscore, are not one."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and node.attr != "_replace"
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        and not (isinstance(node.value, ast.Name) and node.value.id == "os"
                 and node.attr == "_exit")
    ]


def test_the_package_reads_no_other_objects_privates():
    # an object's private state is read through its own methods, so that a
    # class can change its internals without breaking its callers
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(ROOT.glob("src/dpsk/*.py"))
        for line in _private_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _imported_packages(tree):
    """The top-level package of each module an import statement names,
    with its line; relative imports name the package itself and are left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_imports_neither_multiprocessing_nor_concurrent():
    # batch workers fork with os.fork and send through an os.pipe; either
    # package would add its import to the start-up of every run that forks
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.glob("src/dpsk/*.py"))
        for line, name in _imported_packages(ast.parse(path.read_text(encoding="utf-8")))
        if name in ("multiprocessing", "concurrent")
    ]
    assert found == []


#: The batch kernels, by module, each one call of the one closed loop
KERNELS = {"sk_dpc": ("simulate_message_batch", "simulate_forwarding_batch"),
           "sk_dpmac": ("simulate_mac_batch",)}


def test_every_batch_kernel_is_one_call_of_the_closed_loop():
    # a kernel's body is its docstring and ``return _closed_loop(...)``, so a
    # split that needs a second kernel extends the one loop instead
    bodies = {}
    for module, names in KERNELS.items():
        tree = ast.parse((ROOT / "src/dpsk" / f"{module}.py").read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            body = functions[name].body
            assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant), name
            bodies[f"{module}.{name}"] = [
                isinstance(statement, ast.Return) and isinstance(statement.value, ast.Call)
                and isinstance(statement.value.func, ast.Name)
                and statement.value.func.id == "_closed_loop"
                for statement in body[1:]
            ]
    assert bodies == {name: [True] for name in bodies}


def _kernel_readers(node, owner, readers):
    """Add to ``readers`` each batch kernel name that ``node`` reads, with
    the innermost named function around the read, ``owner`` outside any."""
    if isinstance(node, ast.FunctionDef):
        owner = node.name
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    if name in {kernel for kernels in KERNELS.values() for kernel in kernels}:
        readers[name].add(owner)
    for child in ast.iter_child_nodes(node):
        _kernel_readers(child, owner, readers)


def test_every_batch_kernel_is_called_from_the_one_runner():
    # the schemes share one batch runner, which picks the kernel by the
    # record's loop count; no other function of the package reaches one
    readers = collections.defaultdict(set)
    for path in sorted(ROOT.glob("src/dpsk/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _kernel_readers(tree, path.stem, readers)
    kernels = [kernel for names in KERNELS.values() for kernel in names]
    assert {kernel: readers[kernel] for kernel in kernels} == dict.fromkeys(kernels, {"run_batch"})
    assert "def run_batch(" in (ROOT / "src/dpsk/harness.py").read_text(encoding="utf-8")


#: The functions that write into a (B, n) ``out`` buffer they are handed: the
#: closed loop, its kernels and their runner write Y, the noisy transform its state
BUFFERED = {"_closed_loop", "run_batch", "equivalent_draws",
            *(kernel for kernels in KERNELS.values() for kernel in kernels)}


def test_only_the_experiment_loop_hands_a_buffer_to_a_batch_function():
    # a buffer is handed over only where the batch no longer reads it, which
    # _simulate alone knows: each function passes on its own ``out`` as it
    # is, and takes it by keyword alone, so no call hands it positionally
    handing, keyword_only = set(), {}
    for path in sorted(ROOT.glob("src/dpsk/*.py")):
        for function in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(function, ast.FunctionDef):
                continue
            if function.name in BUFFERED:
                keyword_only[function.name] = [a.arg for a in function.args.kwonlyargs]
            for call in (node for node in ast.walk(function) if isinstance(node, ast.Call)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in BUFFERED and any(
                        k.arg == "out" and not (isinstance(k.value, ast.Name)
                                                and k.value.id == "out")
                        for k in call.keywords):
                    handing.add(f"{path.stem}.{function.name}")
    assert handing == {"harness._simulate"}
    assert keyword_only == dict.fromkeys(BUFFERED, ["out"])


def _calls(node, name):
    """The calls of the function ``name``, by name or attribute, anywhere under ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]


def test_each_recursion_checks_its_record_in_its_own_step_loop():
    # the dpc recursion probed its record before its first step, the run's
    # verdict ran a copy of its steps, and each verdict probed a batch's draws
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(ROOT.glob("src/dpsk/*.py"))}
    functions = {(module, node.name): node for module, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    loops = {name: [bool(_calls(loop, "_check_block"))
                    for loop in ast.walk(functions[module, name]) if isinstance(loop, ast.For)]
             for module, name in (("sk_dpc", "compute_coefficients"),
                                  ("sk_dpmac", "mac_coefficients"))}
    assert loops == {"compute_coefficients": [True], "mac_coefficients": [True]}
    assert {module for module, tree in trees.items() if _calls(tree, "_check_block")} == {
        "sk_dpc", "sk_dpmac"}
    named = {key: [arg.arg for arg in node.args.posonlyargs + node.args.args
                   + node.args.kwonlyargs] for key, node in functions.items()}
    assert [key for key, args in named.items() if "draws" in args] == []


def test_the_fraction_and_block_length_errors_are_raised_by_one_check_each():
    # the coefficient functions and RunConfig wrote their own bounds on n, and
    # a second fraction check, _check_split, stood beside check_fraction
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(ROOT.glob("src/dpsk/*.py"))}
    raised = {error: {module: len(_calls(tree, error)) for module, tree in trees.items()
                      if _calls(tree, error)}
              for error in ("SplitOutOfRange", "BlocklengthTooSmall")}
    assert raised == {"SplitOutOfRange": {"params": 1}, "BlocklengthTooSmall": {"params": 1}}
    functions = {node.name for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "_check_split" not in functions
    assert {"check_fraction", "check_blocklength"} <= functions


def test_every_grid_is_checked_in_params_alone():
    # the region functions and the harness turned each grid into a list and
    # tested it for emptiness by hand, and the CLI checked its counts in _grid
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(ROOT.glob("src/dpsk/*.py"))}
    assert {module for module, tree in trees.items() if _calls(tree, "EmptyGrid")} == {"params"}
    grids = [f"{module}:{call.lineno}" for module in ("regions", "harness")
             for call in _calls(trees[module], "list")
             if any(isinstance(arg, ast.Name) and arg.id.endswith(("grid", "gammas", "splits"))
                    for arg in call.args)]
    assert grids == []
    functions = {node.name for node in ast.walk(trees["cli"]) if isinstance(node, ast.FunctionDef)}
    assert "_grid" not in functions and _calls(trees["cli"], "check_count") == []


#: What each method of RandomPlan draws from numpy: numpy.random itself, the
#: re-keyed Generator, or one of its draws.
NUMPY_DRAWS = ("random", "_generator", "integers", "standard_normal", "random_raw")


def test_a_batchs_messages_make_no_per_trial_numpy_draw():
    # messages drew every trial through message, one Philox re-key and one
    # numpy call each; message and normal_block stay the only per-trial draws
    tree = ast.parse((ROOT / "src/dpsk/harness.py").read_text(encoding="utf-8"))
    (plan,) = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RandomPlan"]
    draws = {method.name: sorted({name for name in NUMPY_DRAWS
                                  for node in ast.walk(method)
                                  if getattr(node, "attr", getattr(node, "id", None)) == name})
             for method in plan.body if isinstance(method, ast.FunctionDef)}
    assert draws == {"__post_init__": ["random"], "key": [], "_check_span": [], "_generator": [],
                     "normal_block": ["_generator", "standard_normal"],
                     "message": ["_generator", "integers"], "normals": [],
                     "first_words": [], "messages": []}
