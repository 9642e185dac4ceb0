"""Run one ptclab CLI command in-process with spans around its public layers.

    PYTHONPATH=src python perfbench/traced.py TRACE_OUT.json -- table --rep all --json

The command's stdout is passed through unchanged, and the exit code is the
command's own, so the caller verifies a traced run exactly like an untraced
one.  Spans, counters and probes go to TRACE_OUT.json.

Spans are recorded only from here: every public layer function is replaced,
in each ptclab module that binds it, by a wrapper that records a span
(name, parent, start, end) and then calls the original.  No code under src/
changes.  A name that no longer exists is listed under "missing" and its
metrics read 0 calls.
"""

import sys
import time

_t0 = time.perf_counter()
import ptclab.cli  # noqa: E402  (timed: this is the import a user pays for)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

import numpy as np  # noqa: E402  (already imported by ptclab.cli)

# (defining module, function name): timed spans, bound under that name in
# every ptclab module that looks the function up.
SPAN_TARGETS = (
    ("ptclab.cli", "main"),
    ("ptclab.classify", "full_table"),
    ("ptclab.classify", "classify"),
    ("ptclab.classify", "build_constraints"),
    ("ptclab.generators", "build_generators"),
    ("ptclab.generators", "check_algebra"),
    ("ptclab.generators", "structure_constants"),
    ("ptclab.labels", "helicity_check"),
    ("ptclab.operators", "apply_flags"),
    ("ptclab.operators", "eval_operator"),
    ("ptclab.operators", "bracket_eval"),
)
# Called hundreds of times on 8x8 matrices inside witness selection: counted,
# not timed, so their time stays in the witness-selection self time.
COUNT_TARGETS = (("numpy.linalg", "det"),)
# Imported lazily by the witness polish; patched when scipy.optimize loads so
# that the import itself stays inside the span that triggers it.
LAZY_COUNT_TARGETS = (("scipy.optimize", "least_squares"),)


class Tracer:
    """In-memory spans and counters for one command."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, probe seconds]
        self.stack = []
        self.counts = {}
        self.missing = []
        self.rows = 0
        self.zero_rows = 0
        self.svd_bytes = 0
        self.singular_values = []
        self.witnesses = 0
        self.generator_sets = {}  # rep kind -> GeneratorSet handed to a caller

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def span_wrapper(self, name, fn, probe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = work_end = time.perf_counter()
                stack.pop()
            self.count(name)
            if probe is not None:
                probe(args, result, span)
                span[3] = time.perf_counter()
                span[4] = span[3] - work_end
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # probes: the benchmark's own inspection, excluded from self time

    def probe_constraints(self, args, matrix, span):
        matrix = np.asarray(matrix)
        self.rows += matrix.shape[0]
        self.zero_rows += int(np.count_nonzero(~matrix.any(axis=1)))

    def probe_svd(self, args, result, span):
        self.svd_bytes += int(np.asarray(args[0]).nbytes)
        singular = result[1] if isinstance(result, tuple) else result
        self.singular_values.append(np.asarray(singular, dtype=float))

    def probe_classify(self, args, result, span):
        if getattr(result, "witness", None) is not None:
            self.witnesses += 1

    def probe_generators(self, args, result, span):
        parent = span[1]
        # dirac8 is built from canonical8 inside build_generators; only the
        # sets handed to a caller outside the generator layer count
        if parent is not None and self.spans[parent][0] == "build_generators":
            return
        rep = getattr(result, "rep", None)
        kind = getattr(rep, "kind", None)
        if kind is not None:
            self.generator_sets.setdefault(kind, result)

    def install(self):
        probes = {
            "build_constraints": self.probe_constraints,
            "classify": self.probe_classify,
            "build_generators": self.probe_generators,
        }
        for module_name, name in SPAN_TARGETS:
            _rebind_everywhere(
                module_name, name, self.missing,
                lambda fn, name=name: self.span_wrapper(name, fn, probes.get(name)),
            )
        linalg = importlib.import_module("numpy.linalg")
        if hasattr(linalg, "svd"):
            linalg.svd = self.span_wrapper("svd", linalg.svd, self.probe_svd)
        else:
            self.missing.append("numpy.linalg.svd")
        for module_name, name in COUNT_TARGETS:
            self.count_attribute(importlib.import_module(module_name), name)
        for module_name, name in LAZY_COUNT_TARGETS:
            _patch_on_import(
                module_name, lambda module, name=name: self.count_attribute(module, name)
            )

    def count_attribute(self, module, name):
        if hasattr(module, name):
            setattr(module, name, self.count_wrapper(name, getattr(module, name)))
        else:
            self.missing.append(f"{module.__name__}.{name}")


def _rebind_everywhere(module_name, name, missing, make_wrapper):
    """Replace `name` in every loaded ptclab module that binds the same object."""
    try:
        home = importlib.import_module(module_name)
    except ImportError:
        missing.append(f"{module_name}.{name}")
        return
    original = getattr(home, name, None)
    if not callable(original):
        missing.append(f"{module_name}.{name}")
        return
    wrapper = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ptclab" or mod_name.startswith("ptclab.")):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """One-shot finder that runs `patch(module)` right after a module executes."""

    def __init__(self, fullname, patch):
        self.fullname = fullname
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _patch_on_import(fullname, patch):
    if fullname in sys.modules:
        patch(sys.modules[fullname])
    else:
        sys.meta_path.insert(0, _PatchOnImport(fullname, patch))


def expr_nodes(generator_set) -> int:
    """Distinct Expr nodes reachable from every coefficient of a generator set."""
    from ptclab.expr import Expr

    seen = set()
    todo = []
    for op in generator_set.ops.values():
        for mat in op.terms.values():
            todo.extend(np.asarray(mat, dtype=object).ravel())
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for cls in type(node).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                child = getattr(node, slot, None)
                if isinstance(child, Expr) and id(child) not in seen:
                    todo.append(child)
    return len(seen)


def rank_margin_decades(singular_values, rank_tol) -> float | None:
    """Smallest distance, in decades, from rank_tol * sigma_max to any sigma."""
    worst = None
    for s in singular_values:
        if s.size == 0 or not s[0] > 0:
            continue
        threshold = math.log10(rank_tol * float(s[0]))
        positive = s[s > 0]
        if positive.size == 0:
            continue
        margin = float(np.min(np.abs(np.log10(positive) - threshold)))
        worst = margin if worst is None else min(worst, margin)
    return worst


def main(argv) -> int:
    out_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_OUT.json -- COMMAND...")
    tracer = Tracer()
    tracer.install()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = ptclab.cli.main(command)
    stdout = buffer.getvalue()
    sys.stdout.write(stdout)
    sys.stdout.flush()

    margin = None
    if tracer.singular_values:
        try:
            rank_tol = float(json.loads(stdout)["config"]["rank_tol"])
        except (ValueError, KeyError, TypeError):
            rank_tol = None
        if rank_tol is not None:
            margin = rank_margin_decades(tracer.singular_values, rank_tol)
    record = {
        "import_s": IMPORT_S,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "missing": tracer.missing,
        "rows": tracer.rows,
        "zero_rows": tracer.zero_rows,
        "svd_bytes": tracer.svd_bytes,
        "rank_margin_decades": margin,
        "witnesses": tracer.witnesses,
        "expr_nodes": {
            kind: expr_nodes(g) for kind, g in sorted(tracer.generator_sets.items())
        },
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc if isinstance(rc, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
