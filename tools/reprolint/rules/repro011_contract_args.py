"""REPRO011 — no calls in the message arguments of a contract check.

``contracts.require``/``ensure``/``invariant`` take ``(condition,
message, *args)`` and format the message only on failure, but Python
evaluates every argument before the call.  A call among the message
arguments therefore runs on every check, passing or not: the address
map's round-trip contract once re-encoded each decoded address twice
this way, once for the condition and once more for a message nobody
read.  Compute such a value once, before the check, and pass the name.

The rule flags every call other than ``len`` (cheap, and common in
messages) anywhere inside the message arguments of the three verbs,
however they are imported: ``from repro import contracts``, ``import
repro.contracts as c``, ``from repro.contracts import ensure as e``,
or relatively from inside the package.  Lambda bodies are skipped: they
are not evaluated by the call.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from tools.reprolint.engine import Checker, FileContext, Finding
from tools.reprolint.rules.common import dotted_name

_VERBS = frozenset({"require", "ensure", "invariant"})
_ALLOWED_CALLS = frozenset({"len"})


def _last(module: Optional[str]) -> Optional[str]:
    return module.rsplit(".", 1)[-1] if module else None


def _contract_names(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """(dotted names bound to the contracts module, local names bound to
    one of its verbs)."""
    modules: Set[str] = set()
    verbs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.contracts" and alias.asname:
                    modules.add(alias.asname)
                elif alias.name.split(".")[0] == "repro":
                    modules.add("repro.contracts")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name == "contracts" and _last(node.module) in (
                    None, "repro"
                ):
                    modules.add(local)
                elif alias.name in _VERBS and _last(node.module) == "contracts":
                    verbs.add(local)
    return modules, verbs


def _verb(call: ast.Call, modules: Set[str], verbs: Set[str]) -> Optional[str]:
    """The contract verb ``call`` invokes, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in verbs:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _VERBS
        and dotted_name(func.value) in modules
    ):
        return func.attr
    return None


def _eager_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Every call evaluated with ``node``, except those inside lambdas."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _eager_calls(child)


class ContractMessageCallChecker(Checker):
    code = "REPRO011"
    name = "contract-message-call"
    description = (
        "no calls (other than len) in the message arguments of "
        "contracts.require/ensure/invariant: they run on every check, "
        "even when it passes"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        modules, verbs = _contract_names(ctx.tree)
        if not modules and not verbs:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            verb = _verb(node, modules, verbs)
            if verb is None:
                continue
            message_args = [*node.args[1:]] + [
                keyword.value
                for keyword in node.keywords
                if keyword.arg != "condition"
            ]
            for arg in message_args:
                for call in _eager_calls(arg):
                    callee = dotted_name(call.func) or "<expression>"
                    if callee in _ALLOWED_CALLS:
                        continue
                    yield self.finding(
                        ctx, call,
                        f"call to {callee}() in the message arguments of "
                        f"contracts.{verb}() runs on every check, even when "
                        f"it passes; compute the value once before the "
                        f"check",
                    )
