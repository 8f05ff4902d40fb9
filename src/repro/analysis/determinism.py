"""``determinism``: the result path must not read ambient entropy.

The reproduction's core promise is bit-identical results: the same
config batch produces the same metrics regardless of backend, worker
count, or machine.  Three ambient-entropy leaks would silently break
that promise, and each is statically visible:

* **Unseeded global RNG** — ``random.random()`` / ``np.random.*``
  draw from process-global state whose sequence depends on import
  order and prior callers.  Result-path code must thread an explicit
  ``random.Random(seed)`` / ``np.random.default_rng(seed)`` instance.
  Enforced in the directories that compute results: ``isa/``,
  ``sim/``, ``codegen/``, ``tuning/``.
* **Wall-clock reads** — ``time.time()`` / ``datetime.now()`` in the
  same directories put the clock into the data.  (Monotonic timers for
  *observability* — ``time.perf_counter`` — are fine: they never feed
  results.)
* **Order-dependent set iteration** — everywhere.  Iterating a
  ``set`` bakes hash-seed ordering into whatever the loop builds.
  Flagged when a provable set (a literal, ``set(...)`` call, a name or
  ``self.`` attribute assigned one) is looped over or materialised
  with ``list``/``tuple``; iteration feeding an order-insensitive
  consumer (``sorted``, ``any``, ``sum``, …) or building another set
  is allowed.

The set-table is lexical — names assigned a set expression in the same
module, function, or (for ``self.X``) class ``__init__`` — so an
attribute the checker cannot trace passes; this trades recall for a
zero-false-positive default, the right trade for a CI gate.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, Finding, SourceFile, register

#: Directories whose code computes results (RNG/clock rules apply).
_RESULT_DIRS = ("isa", "sim", "codegen", "tuning")

#: ``random.X(...)`` calls that do not draw from the global stream.
_RANDOM_OK = {"Random", "SystemRandom"}

#: ``np.random.X(...)`` calls that construct an explicit generator.
_NP_RANDOM_OK = {"default_rng", "RandomState", "Generator", "SeedSequence"}

#: Wall-clock reads: module attr -> banned call names.
_WALL_CLOCK = {
    "time": {"time", "time_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Builtins that consume an iterable order-insensitively.
_ORDER_FREE_CONSUMERS = {
    "sorted", "any", "all", "sum", "len", "min", "max", "set",
    "frozenset",
}

#: Builtins that materialise iteration order into a sequence.
_ORDER_CAPTURING = {"list", "tuple"}


def _is_set_literal(expr: ast.expr) -> bool:
    """Expression that is a set by construction."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in {"set", "frozenset"})


def _set_names(body: list[ast.stmt]) -> set[str]:
    """Plain names assigned a set expression anywhere in ``body``."""
    names: set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) and _is_set_literal(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and _is_set_literal(node.value)
                    and isinstance(node.target, ast.Name)):
                names.add(node.target.id)
    return names


def _self_set_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.X`` attributes assigned a set in the class ``__init__``."""
    attrs: set[str] = set()
    for node in cls.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "__init__"):
            continue
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign)
                    and _is_set_literal(stmt.value)):
                continue
            for target in stmt.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    attrs.add(target.attr)
    return attrs


@register
class DeterminismChecker(Checker):
    """See the module docstring."""

    name = "determinism"
    description = (
        "no unseeded global RNG or wall-clock in result code; no "
        "order-dependent set iteration anywhere"
    )

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        if source.in_dirs(*_RESULT_DIRS):
            self._check_entropy(source, findings)
        self._check_set_iteration(source, findings)
        return findings

    # -- unseeded RNG and wall-clock (result directories only) ----------

    def _check_entropy(self, source: SourceFile,
                       findings: list[Finding]) -> None:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "random"
                    and func.attr not in _RANDOM_OK):
                findings.append(Finding(
                    path=source.rel, line=node.lineno, rule=self.name,
                    message=(
                        f"random.{func.attr}() draws from the process-"
                        f"global RNG; result-path code must use an "
                        f"explicit random.Random(seed) instance"
                    ),
                ))
            elif (isinstance(owner, ast.Attribute)
                    and owner.attr == "random"
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id in {"np", "numpy"}
                    and func.attr not in _NP_RANDOM_OK):
                findings.append(Finding(
                    path=source.rel, line=node.lineno, rule=self.name,
                    message=(
                        f"{owner.value.id}.random.{func.attr}() uses "
                        f"the global numpy RNG; result-path code must "
                        f"use an explicit default_rng(seed)"
                    ),
                ))
            elif (isinstance(owner, ast.Name)
                    and func.attr in _WALL_CLOCK.get(owner.id, ())):
                findings.append(Finding(
                    path=source.rel, line=node.lineno, rule=self.name,
                    message=(
                        f"{owner.id}.{func.attr}() reads the wall "
                        f"clock inside result-path code; results must "
                        f"not depend on when they were computed"
                    ),
                ))
            elif (isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "datetime"
                    and func.attr in _WALL_CLOCK.get(owner.attr, ())):
                findings.append(Finding(
                    path=source.rel, line=node.lineno, rule=self.name,
                    message=(
                        f"datetime.{owner.attr}.{func.attr}() reads "
                        f"the wall clock inside result-path code"
                    ),
                ))

    # -- order-dependent set iteration (everywhere) ---------------------

    def _check_set_iteration(self, source: SourceFile,
                             findings: list[Finding]) -> None:
        module_sets = _set_names(source.tree.body)
        parents = source.parents()

        def is_set_expr(expr: ast.expr, scope_sets: set[str],
                        attr_sets: set[str]) -> bool:
            if _is_set_literal(expr):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in scope_sets
            return (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in attr_sets)

        def consumer_of(node: ast.AST) -> str | None:
            """Builtin name directly consuming ``node``, if any."""
            parent = parents.get(node)
            if (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and node in parent.args):
                return parent.func.id
            return None

        def flag(expr: ast.expr, what: str) -> None:
            findings.append(Finding(
                path=source.rel, line=expr.lineno, rule=self.name,
                message=(
                    f"{what} iterates a set in hash order; wrap it in "
                    f"sorted(...) (or consume it order-insensitively) "
                    f"so results cannot depend on the hash seed"
                ),
            ))

        def scan(node: ast.AST, scope_sets: set[str],
                 attr_sets: set[str]) -> None:
            if isinstance(node, ast.ClassDef):
                class_attr_sets = _self_set_attrs(node)
                for child in node.body:
                    scan(child, set(scope_sets), class_attr_sets)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope_sets | _set_names(node.body)
                for child in node.body:
                    scan(child, inner, attr_sets)
                return
            if (isinstance(node, (ast.For, ast.AsyncFor))
                    and is_set_expr(node.iter, scope_sets, attr_sets)):
                flag(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                # A comprehension over a set is fine when its *result*
                # is immediately consumed order-insensitively.
                if consumer_of(node) not in _ORDER_FREE_CONSUMERS:
                    for gen in node.generators:
                        if is_set_expr(gen.iter, scope_sets, attr_sets):
                            flag(gen.iter, "comprehension")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_CAPTURING
                    and len(node.args) == 1
                    and is_set_expr(node.args[0], scope_sets,
                                    attr_sets)):
                flag(node.args[0], f"{node.func.id}() call")
            for child in ast.iter_child_nodes(node):
                scan(child, scope_sets, attr_sets)

        for stmt in source.tree.body:
            scan(stmt, module_sets, set())
